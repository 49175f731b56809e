package metrics

import (
	"sync"
	"time"
)

// Snapshot is a flat point-in-time sample of every instrument in a
// registry — the unit the /snapshots.json endpoint retains. Labeled
// counters flatten to "name{label=value}" keys so the map stays one
// level deep.
type Snapshot struct {
	UnixNanos  int64                    `json:"unix_nanos"`
	Counters   map[string]int64         `json:"counters,omitempty"`
	Gauges     map[string]float64       `json:"gauges,omitempty"`
	Histograms map[string]HistogramData `json:"histograms,omitempty"`
}

// TakeSnapshot samples every instrument at the given timestamp. Gauge
// functions run inline, under the registry mutex (see the package
// comment for the locking contract).
func (r *Registry) TakeSnapshot(now time.Time) Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()

	s := Snapshot{
		UnixNanos:  now.UnixNano(),
		Counters:   make(map[string]int64, len(r.counters)+len(r.vecs)),
		Gauges:     make(map[string]float64, len(r.gauges)+len(r.gaugeFns)),
		Histograms: make(map[string]HistogramData, len(r.histograms)),
	}
	for _, c := range r.counters {
		s.Counters[c.name] = c.Value()
	}
	for _, v := range r.vecs {
		for _, lv := range v.snapshotChildren() {
			s.Counters[v.name+"{"+v.label+"="+lv.label+"}"] = lv.value
		}
	}
	for _, g := range r.gauges {
		s.Gauges[g.name] = float64(g.Value())
	}
	for _, gf := range r.gaugeFns {
		s.Gauges[gf.name] = gf.fn()
	}
	for _, h := range r.histograms {
		s.Histograms[h.name] = h.Snapshot()
	}
	return s
}

// Ring is a fixed-capacity snapshot buffer: Add overwrites the oldest
// entry once full, Snapshots returns the retained window oldest-first.
type Ring struct {
	mu    sync.Mutex
	buf   []Snapshot
	next  int
	count int
}

// NewRing creates a ring retaining up to capacity snapshots
// (capacity < 1 is clamped to 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]Snapshot, capacity)}
}

// Add appends a snapshot, evicting the oldest when full.
func (r *Ring) Add(s Snapshot) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf[r.next] = s
	r.next = (r.next + 1) % len(r.buf)
	if r.count < len(r.buf) {
		r.count++
	}
}

// Snapshots returns the retained snapshots, oldest first.
func (r *Ring) Snapshots() []Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Snapshot, 0, r.count)
	start := r.next - r.count
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.count; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// Len returns the number of retained snapshots.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}

// Collector periodically samples a registry into a ring. One snapshot
// is taken immediately on start so the endpoint never serves an empty
// ring on a freshly booted coordinator.
type Collector struct {
	reg      *Registry
	ring     *Ring
	interval time.Duration

	stop chan struct{}
	done chan struct{}
}

// StartCollector begins sampling reg every interval, retaining the
// most recent `retention` snapshots. interval < 1ms is clamped to 1s;
// retention < 1 is clamped to 1.
func StartCollector(reg *Registry, interval time.Duration, retention int) *Collector {
	if interval < time.Millisecond {
		interval = time.Second
	}
	c := &Collector{
		reg:      reg,
		ring:     NewRing(retention),
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	c.ring.Add(reg.TakeSnapshot(time.Now()))
	go c.run()
	return c
}

func (c *Collector) run() {
	defer close(c.done)
	t := time.NewTicker(c.interval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case now := <-t.C:
			c.ring.Add(c.reg.TakeSnapshot(now))
		}
	}
}

// Ring exposes the retained snapshots.
func (c *Collector) Ring() *Ring { return c.ring }

// Interval reports the sampling interval.
func (c *Collector) Interval() time.Duration { return c.interval }

// Stop halts sampling and waits for the sampler goroutine to exit.
func (c *Collector) Stop() {
	select {
	case <-c.stop:
	default:
		close(c.stop)
	}
	<-c.done
}
