// Command loadgen drives a live cluster fleet through a time-varying
// submission pattern and measures what the coordinator does under it:
// admission verdicts, completion latency percentiles, and fleet
// utilization, bucketed into a timeline of aggregation intervals.
//
//	loadgen -coordinator host:7580 -preset burst -duration 2h -time-scale 60 \
//	        -jobs 500 -timeline-csv run.csv -timeline-json run.json
//
// Patterns are written in simulated time and replayed compressed: with
// -time-scale 60 a two-hour burst scenario runs in two real minutes,
// and the emitted timeline is stamped in simulated offsets so it lines
// up with the scenario it models. The total job count is set by -jobs
// regardless of compression.
//
// Rejected submissions (the coordinator's queue-full fast path) are
// resubmitted with jittered exponential back-off up to -retries times,
// per the admission-control contract; the timeline's rejected, retried
// and gave_up columns make the back-pressure — and the load the client
// permanently sheds — visible. Submissions mix the -shapes list
// round-robin, so distinct graph shapes contend the coordinator's
// per-shape configuration cache and run locks the way a real mixed
// workload would.
//
// Fleet gauges (queue depth, running jobs, live workers, slots) are
// polled over the same control connection the submissions use. -report
// renders a post-run summary with the full client-side latency
// histogram as a console table or a schema-stable JSON report.
//
// -chaos injects a deterministic fault schedule (see internal/chaos)
// into the client's submission path: delays stall submissions, and
// drop/reset rules at the pre-submit point burn a resubmission attempt
// as if the coordinator had rejected the job, so lost submissions stay
// inside the retry budget instead of poisoning the shared control
// connection.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"taskbench/internal/chaos"
	"taskbench/internal/cluster"
	"taskbench/internal/metrics"
	"taskbench/internal/pattern"
	"taskbench/internal/report"
	"taskbench/internal/timeline"
	"taskbench/internal/wire"
)

func main() {
	log.SetFlags(log.Ltime | log.Lmicroseconds)
	log.SetPrefix("loadgen: ")
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	coordinator := fs.String("coordinator", "", "coordinator control address (required)")
	preset := fs.String("preset", "burst", "load shape: "+strings.Join(pattern.PresetNames(), ", "))
	duration := fs.Duration("duration", 2*time.Minute, "simulated length of the run")
	timeScale := fs.Float64("time-scale", 1, "compression factor: simulated seconds per real second")
	jobs := fs.Float64("jobs", 200, "total jobs the pattern integrates to")
	seed := fs.Int64("seed", 0, "Poisson arrival seed; 0 selects deterministic unit spacing")
	interval := fs.Duration("interval", 5*time.Second, "timeline aggregation interval, simulated time")
	shapes := fs.String("shapes", "stencil_1d_periodic/6x8/2,trivial/6x8/2",
		"job shapes to mix round-robin, comma-separated type/WIDTHxSTEPS/RANKS")
	task := fs.Duration("task", 500*time.Microsecond, "busy-wait duration of each task in every job")
	retries := fs.Int("retries", 4, "resubmissions per rejected job before giving up")
	backoff := fs.Duration("backoff", 10*time.Millisecond, "base real-time back-off after a rejection (doubles per attempt)")
	poll := fs.Duration("poll", 100*time.Millisecond, "real-time period of the coordinator stats poller")
	drain := fs.Duration("drain", 60*time.Second, "real-time grace for in-flight jobs after the last arrival")
	chaosFlag := fs.String("chaos", "", "chaos scenario for the submission path: a preset ("+strings.Join(chaos.PresetNames(), ", ")+") or a rule script")
	chaosSeed := fs.Int64("chaos-seed", 1, "seed of the chaos fault schedule")
	csvPath := fs.String("timeline-csv", "", "stream timeline rows as CSV to this file")
	jsonPath := fs.String("timeline-json", "-", "write the timeline JSON document here (- for stdout)")
	reportMode := fs.String("report", "none", "post-run rendering: console (summary + latency histogram), json (machine-readable report), none")
	fs.Parse(args)

	if *coordinator == "" {
		return fmt.Errorf("-coordinator is required")
	}
	mode, err := report.ParseMode(*reportMode)
	if err != nil {
		return err
	}
	// In json report mode the report document owns stdout; an untouched
	// -timeline-json default would interleave two JSON documents there,
	// so it yields unless the user asked for it explicitly.
	if mode == report.JSON && *jsonPath == "-" {
		explicit := false
		fs.Visit(func(f *flag.Flag) { explicit = explicit || f.Name == "timeline-json" })
		if explicit {
			return fmt.Errorf("-report json and -timeline-json - both claim stdout; write the timeline to a file")
		}
		*jsonPath = ""
	}
	specs, err := parseShapes(*shapes, *task)
	if err != nil {
		return err
	}
	pat, err := pattern.Preset(*preset, *duration, *jobs)
	if err != nil {
		return err
	}
	var rng *rand.Rand
	if *seed != 0 {
		rng = rand.New(rand.NewSource(*seed))
	}
	var inj *chaos.Injector
	if *chaosFlag != "" {
		sc, err := chaos.Parse(*chaosFlag)
		if err != nil {
			return err
		}
		inj = chaos.NewInjector(sc, *chaosSeed).Fork("client")
		log.Printf("chaos: scenario %s (seed %d)", sc, *chaosSeed)
	}

	var sink func(timeline.Row)
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if _, err := fmt.Fprintln(f, timeline.CSVHeader); err != nil {
			return err
		}
		sink = func(r timeline.Row) {
			if err := timeline.WriteCSVRow(f, r); err != nil {
				log.Printf("timeline csv: %v", err)
			}
		}
	}
	col := timeline.New(*interval, sink)

	cli, err := cluster.Dial(*coordinator)
	if err != nil {
		return err
	}
	defer cli.Close()
	initCtx, initCancel := context.WithTimeout(context.Background(), 10*time.Second)
	info, err := cli.StatsContext(initCtx)
	initCancel()
	if err != nil {
		return fmt.Errorf("initial stats: %w", err)
	}
	log.Printf("fleet: %d workers, %d slots, queue %d/%d; pattern %s over %v at %gx (peak %.1f jobs/s simulated)",
		info.Workers, info.Concurrency, info.QueueLen, info.QueueCap,
		pat.Name, pat.Duration, *timeScale, pat.PeakRate())

	clock := pattern.NewClock(time.Now(), *timeScale)
	stop := make(chan struct{}) // closed on SIGINT/SIGTERM: stop submitting
	done := make(chan struct{}) // closed when the run is over: stop polling
	var protoErr atomic.Bool    // a lost coordinator fails the run
	var gaveUp, submitted int64

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		select {
		case s := <-sigs:
			log.Printf("signal %v: draining", s)
			close(stop)
		case <-done:
		}
	}()

	// The stats poller samples the coordinator's gauges into the
	// timeline and advances the streaming window as simulated time
	// passes. Each query carries a deadline so a stalled coordinator
	// (or a chaos-delayed control path) costs one skipped sample, not a
	// wedged poller.
	statsTimeout := 10 * *poll
	if statsTimeout < time.Second {
		statsTimeout = time.Second
	}
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		tick := time.NewTicker(*poll)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			ctx, cancel := context.WithTimeout(context.Background(), statsTimeout)
			st, err := cli.StatsContext(ctx)
			cancel()
			if errors.Is(err, context.DeadlineExceeded) {
				continue
			}
			if err != nil {
				protoErr.Store(true)
				return
			}
			now := clock.Sim(time.Now())
			col.Sample(now, st.QueueLen, st.JobsRunning, st.Workers, st.Concurrency)
			col.Advance(now)
		}
	}()

	// Per-job completion latencies feed a client-side histogram (in
	// simulated seconds) so the post-run report carries the full
	// distribution, not just the timeline's three percentiles.
	latHist := metrics.NewRegistry().Histogram("job_latency_seconds",
		"Simulated submit-to-completion latency per job.", metrics.LatencyBuckets)

	// The submission loop schedules each arrival at its compressed wall
	// instant and hands the job to a goroutine that sees it through
	// rejection back-off and resubmission.
	var jobWG sync.WaitGroup
	arr := pattern.NewArrivals(pat, rng)
	idx := 0
submitting:
	for {
		simAt, ok := arr.Next()
		if !ok {
			break
		}
		if wait := time.Until(clock.Real(simAt)); wait > 0 {
			select {
			case <-stop:
				break submitting
			case <-time.After(wait):
			}
		}
		select {
		case <-stop:
			break submitting
		default:
		}
		spec := specs[idx%len(specs)]
		idx++
		atomic.AddInt64(&submitted, 1)
		jobWG.Add(1)
		go func() {
			defer jobWG.Done()
			if !oneJob(cli, spec, clock, col, latHist, inj, *retries, *backoff) {
				if !protoErr.Load() {
					atomic.AddInt64(&gaveUp, 1)
				}
			}
		}()
		if protoErr.Load() {
			break
		}
	}

	// Drain: in-flight jobs get a real-time grace, then the run is cut.
	drained := make(chan struct{})
	go func() { jobWG.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(*drain):
		log.Printf("drain timeout after %v with jobs still in flight", *drain)
	}
	close(done)
	pollWG.Wait()

	tl := col.Finish()
	tl.Pattern = pat.Name
	tl.TimeScale = *timeScale
	if err := writeTimeline(*jsonPath, tl); err != nil {
		return err
	}
	t := tl.Totals
	log.Printf("run summary: %d arrivals, %d submitted / %d accepted / %d rejected / %d retried; %d completed, %d failed, %d gave up; p50 %.1fms p95 %.1fms p99 %.1fms (simulated)",
		atomic.LoadInt64(&submitted), t.Submitted, t.Accepted, t.Rejected, t.Retried,
		t.Completed, t.Failed, atomic.LoadInt64(&gaveUp),
		t.P50Millis, t.P95Millis, t.P99Millis)
	lat := latHist.Snapshot()
	rep := report.FromTimeline(fmt.Sprintf("loadgen %s against %s", pat.Name, *coordinator), tl, &lat)
	if err := rep.Write(os.Stdout, mode); err != nil {
		return err
	}
	if protoErr.Load() {
		return fmt.Errorf("coordinator connection lost mid-run")
	}
	return nil
}

// oneJob submits the spec and follows it to an outcome, resubmitting
// with jittered exponential back-off when the coordinator rejects it
// (or a chaos rule eats the submission). It reports whether the job
// reached a terminal verdict (completed or failed); false means it
// gave up after exhausting its resubmission budget or the connection
// died.
func oneJob(cli *cluster.Client, spec wire.AppSpec, clock pattern.Clock, col *timeline.Collector, lat *metrics.Histogram, inj *chaos.Injector, retries int, backoff time.Duration) bool {
	for attempt := 0; ; attempt++ {
		submitSim := clock.Sim(time.Now())
		act := inj.Point("pre-submit")
		if act.Delay > 0 {
			time.Sleep(act.Delay)
			submitSim = clock.Sim(time.Now())
		}
		col.Submitted(submitSim)
		if act.Drop || act.Reset {
			// The scripted fault ate the submission before the
			// coordinator saw it. That burns an attempt from the same
			// budget as a rejection — a real lost frame costs the client
			// a timeout-and-resubmit round.
			now := clock.Sim(time.Now())
			if attempt >= retries {
				col.GaveUp(now)
				return false
			}
			sleepBackoff(backoff, attempt)
			col.Retried(clock.Sim(time.Now()))
			continue
		}
		p, err := cli.SubmitAsync(spec)
		if err != nil {
			return false
		}
		res, err := p.Wait()
		if err != nil {
			return false
		}
		now := clock.Sim(time.Now())
		if res.Rejected {
			col.Rejected(now)
			if attempt >= retries {
				col.GaveUp(now)
				return false
			}
			sleepBackoff(backoff, attempt)
			col.Retried(clock.Sim(time.Now()))
			continue
		}
		// Admission is synchronous on the coordinator, so the verdict
		// belongs to the submission instant.
		col.Accepted(submitSim)
		lat.ObserveDuration(now - submitSim)
		if res.Err != nil {
			col.Failed(now, now-submitSim)
		} else {
			col.Completed(now, now-submitSim)
		}
		return true
	}
}

// sleepBackoff sleeps the attempt's back-off: base doubled per attempt,
// jittered uniformly over [d/2, 3d/2) so synchronized rejections don't
// resubmit in lockstep and re-collide on the same queue-full instant.
func sleepBackoff(base time.Duration, attempt int) {
	if attempt > 16 {
		attempt = 16
	}
	d := int64(base) << uint(attempt)
	time.Sleep(time.Duration(d/2 + rand.Int63n(d+1)))
}

// parseShapes turns the -shapes list ("type/WIDTHxSTEPS/RANKS", comma
// separated) into submission specs, all running busy-wait tasks of the
// given duration.
func parseShapes(s string, task time.Duration) ([]wire.AppSpec, error) {
	var specs []wire.AppSpec
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		parts := strings.Split(item, "/")
		if len(parts) != 3 {
			return nil, fmt.Errorf("shape %q: want type/WIDTHxSTEPS/RANKS", item)
		}
		wxs := strings.SplitN(parts[1], "x", 2)
		if len(wxs) != 2 {
			return nil, fmt.Errorf("shape %q: want WIDTHxSTEPS, got %q", item, parts[1])
		}
		width, err1 := strconv.Atoi(wxs[0])
		steps, err2 := strconv.Atoi(wxs[1])
		ranks, err3 := strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil || err3 != nil || width <= 0 || steps <= 0 || ranks <= 0 {
			return nil, fmt.Errorf("shape %q: bad dimensions", item)
		}
		spec := wire.AppSpec{
			Workers: ranks,
			Graphs: []wire.GraphSpec{{
				Steps: steps, Width: width, Type: parts[0],
				KernelSpec: wire.KernelSpec{Kernel: "busy_wait", WaitNanos: int64(task)},
				Output:     64,
			}},
		}
		// The coordinator's own check, run before dialing: a mistyped
		// pattern would otherwise surface as every job of the run failing.
		if err := spec.Check(); err != nil {
			return nil, fmt.Errorf("shape %q: %w", item, err)
		}
		specs = append(specs, spec)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("no shapes in %q", s)
	}
	return specs, nil
}

// writeTimeline writes the timeline document to path ("-" = stdout).
func writeTimeline(path string, tl timeline.Timeline) error {
	if path == "" {
		return nil
	}
	if path == "-" {
		return timeline.WriteJSON(os.Stdout, tl)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := timeline.WriteJSON(f, tl); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
