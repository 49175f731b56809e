package cluster

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"time"
)

// httpServer serves the coordinator's observability endpoints:
//
//	/metrics  Prometheus text exposition v0.0.4 of the registry
//	/healthz  fleet quorum + queue saturation, 200 ok / 503 degraded
//
// It is read-only and coordinator-local: every handler samples state
// on the loop the same way a stats reply does, so a scrape can never
// mutate the scheduler.
type httpServer struct {
	c   *Coordinator
	ln  net.Listener
	srv *http.Server
}

func startHTTPServer(c *Coordinator, addr string) (*httpServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: http listen %s: %w", addr, err)
	}
	s := &httpServer{c: c, ln: ln}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	s.srv = &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		s.srv.Serve(ln)
	}()
	c.opts.Logf("cluster: observability endpoints on http://%s (/metrics /healthz)", ln.Addr())
	return s, nil
}

func (s *httpServer) close() {
	s.srv.Close()
}

// HTTPAddr returns the address the observability endpoints listen on,
// or "" when the HTTP server is disabled.
func (c *Coordinator) HTTPAddr() string {
	if c.http == nil {
		return ""
	}
	return c.http.ln.Addr().String()
}

func (s *httpServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.c.do(func() { s.c.sample() })
	s.c.metrics.reg.WritePrometheus(w)
}

// healthzReply is the /healthz body. Status is "ok" iff at least one
// non-draining worker can take placements AND the queue has headroom —
// the two conditions under which a fresh submission can make progress.
type healthzReply struct {
	Status          string `json:"status"`
	Reason          string `json:"reason,omitempty"`
	Workers         int    `json:"workers"`
	WorkersDraining int    `json:"workers_draining"`
	QueueLen        int    `json:"queue_len"`
	QueueCap        int    `json:"queue_cap"`
	JobsRunning     int    `json:"jobs_running"`
	SchedulerSlots  int    `json:"scheduler_slots"`
}

func (s *httpServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.c.Stats()
	reply := healthzReply{
		Status:          "ok",
		Workers:         st.Workers,
		WorkersDraining: st.WorkersDraining,
		QueueLen:        st.QueueLen,
		QueueCap:        st.QueueCap,
		JobsRunning:     st.JobsRunning,
		SchedulerSlots:  st.Concurrency,
	}

	switch {
	case reply.Workers-reply.WorkersDraining < 1:
		reply.Status = "degraded"
		reply.Reason = "no placeable workers"
	case reply.QueueLen >= reply.QueueCap:
		reply.Status = "degraded"
		reply.Reason = "queue saturated"
	}
	w.Header().Set("Content-Type", "application/json")
	if reply.Status != "ok" {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(reply)
}
