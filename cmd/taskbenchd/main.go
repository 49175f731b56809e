// Command taskbenchd runs the cluster-mode daemons: a coordinator that
// accepts benchmark jobs and fans them out over a fleet, and workers
// that host rank spans of distributed runs in their own processes.
//
//	taskbenchd coordinator -listen 0.0.0.0:7580
//	taskbenchd worker -coordinator host:7580 -name node1 [-advertise 10.0.0.5]
//
// Clients submit wire.AppSpec jobs to the coordinator — interactively
// with `metg -cluster host:7580`, or programmatically through
// internal/cluster.Client. The scheduler runs up to -concurrency jobs
// at once (different shapes overlap across the fleet; same-shape jobs
// pipeline over their shared prepared configuration), re-runs jobs
// whose workers died up to -retries times, and rejects submissions
// immediately once the -queue deep backlog is full. Jobs with the same
// graph shape share one prepared configuration (plans, payload rows,
// live TCP mesh) across requests, so sweeps pay mesh establishment
// once.
//
// The fleet is elastic: workers may join mid-run (queued jobs re-plan
// over the grown fleet) and leave gracefully — a worker started with
// -drain-on SIGTERM answers the first SIGTERM by announcing a drain,
// finishing its in-flight runs, and exiting once the coordinator
// releases it. -chaos injects a deterministic fault schedule (see
// internal/chaos) for robustness testing.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"taskbench/internal/chaos"
	"taskbench/internal/cluster"
)

func main() {
	log.SetFlags(log.Ltime | log.Lmicroseconds)
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "coordinator":
		err = runCoordinator(os.Args[2:])
	case "worker":
		err = runWorker(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "taskbenchd: unknown subcommand %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		log.Fatalf("taskbenchd: %v", err)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  taskbenchd coordinator [-listen addr] [-heartbeat d] [-timeout d] [-job-timeout d]
                         [-concurrency n] [-retries n] [-queue n] [-max-configs n]
                         [-drain-timeout d] [-chaos scenario] [-http addr]
  taskbenchd worker -coordinator addr [-name s] [-advertise host]
                    [-drain-on SIGTERM] [-chaos scenario] [-chaos-seed n]`)
}

func runCoordinator(args []string) error {
	fs := flag.NewFlagSet("coordinator", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:7580", "control address to listen on")
	heartbeat := fs.Duration("heartbeat", time.Second, "worker heartbeat interval")
	timeout := fs.Duration("timeout", 5*time.Second, "heartbeat timeout declaring a worker dead")
	jobTimeout := fs.Duration("job-timeout", 10*time.Minute, "per-job run timeout")
	concurrency := fs.Int("concurrency", 4, "scheduler slots: jobs that may run across the fleet at once")
	retries := fs.Int("retries", 2, "re-runs per job when workers die mid-run (0 disables retry)")
	queue := fs.Int("queue", 64, "job queue depth; submissions beyond it are rejected immediately")
	maxConfigs := fs.Int("max-configs", 32, "prepared shape configurations kept live; cold ones are evicted LRU")
	drainTimeout := fs.Duration("drain-timeout", 0, "grace for a draining worker's in-flight runs before it is declared dead (default -job-timeout)")
	httpAddr := fs.String("http", "", "serve observability endpoints (/metrics /healthz) on this address; empty disables")
	chaosFlag := fs.String("chaos", "", "chaos scenario for worker control conversations: a preset ("+strings.Join(chaos.PresetNames(), ", ")+") or a rule script")
	chaosSeed := fs.Int64("chaos-seed", 1, "seed of the chaos fault schedule")
	fs.Parse(args)
	if *retries < 0 {
		*retries = 0
	}
	inj, err := parseChaos(*chaosFlag, *chaosSeed)
	if err != nil {
		return err
	}

	coord, err := cluster.Start(cluster.Options{
		Listen:            *listen,
		HeartbeatInterval: *heartbeat,
		HeartbeatTimeout:  *timeout,
		JobTimeout:        *jobTimeout,
		Concurrency:       *concurrency,
		// -retries counts RE-runs; MaxAttempts counts total runs.
		MaxAttempts:  *retries + 1,
		QueueDepth:   *queue,
		MaxConfigs:   *maxConfigs,
		DrainTimeout: *drainTimeout,
		Chaos:        inj,
		Logf:         log.Printf,
		HTTPAddr:     *httpAddr,
	})
	if err != nil {
		return err
	}
	defer coord.Close()
	log.Printf("taskbenchd: coordinator on %s; submit jobs with `metg -cluster %s`", coord.Addr(), coord.Addr())
	waitForSignal()
	return nil
}

func runWorker(args []string) error {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	coordinator := fs.String("coordinator", "127.0.0.1:7580", "coordinator control address")
	name := fs.String("name", "", "worker name in coordinator logs (default hostname)")
	advertise := fs.String("advertise", "127.0.0.1", "host peers dial for rank data connections")
	drainOn := fs.String("drain-on", "", "signal that triggers a graceful drain instead of an abrupt exit (only SIGTERM); any further signal forces the abrupt path")
	chaosFlag := fs.String("chaos", "", "chaos scenario for this worker's control and mesh paths: a preset ("+strings.Join(chaos.PresetNames(), ", ")+") or a rule script")
	chaosSeed := fs.Int64("chaos-seed", 1, "seed of the chaos fault schedule")
	fs.Parse(args)
	if *drainOn != "" && *drainOn != "SIGTERM" {
		return fmt.Errorf("-drain-on supports only SIGTERM, got %q", *drainOn)
	}
	inj, err := parseChaos(*chaosFlag, *chaosSeed)
	if err != nil {
		return err
	}

	if *name == "" {
		if host, err := os.Hostname(); err == nil {
			*name = host
		}
	}
	w := cluster.NewWorker(cluster.WorkerOptions{
		Coordinator: *coordinator,
		Name:        *name,
		Advertise:   *advertise,
		Chaos:       inj,
		Logf:        log.Printf,
	})
	go func() {
		ch := make(chan os.Signal, 2)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		s := <-ch
		if *drainOn == "SIGTERM" && s == syscall.SIGTERM {
			log.Printf("taskbenchd: SIGTERM: draining (send another signal to force exit)")
			if err := w.Drain(); err != nil {
				log.Printf("taskbenchd: drain: %v; closing", err)
				w.Close()
				return
			}
			// Run exits on its own when the coordinator confirms the
			// drain; a second signal cuts the wait short.
			s = <-ch
			log.Printf("taskbenchd: signal %v during drain: closing", s)
			w.Close()
			return
		}
		log.Printf("taskbenchd: signal %v: shutting down", s)
		w.Close()
	}()
	return w.Run()
}

// parseChaos builds the seeded fault injector for a -chaos scenario;
// an empty scenario disables injection.
func parseChaos(scenario string, seed int64) (*chaos.Injector, error) {
	if scenario == "" {
		return nil, nil
	}
	sc, err := chaos.Parse(scenario)
	if err != nil {
		return nil, err
	}
	log.Printf("taskbenchd: chaos scenario %s (seed %d)", sc, seed)
	return chaos.NewInjector(sc, seed), nil
}

func waitForSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
	log.Printf("taskbenchd: shutting down")
}
