// Distributed: runs a halo exchange over the hand-rolled TCP runtime
// — real sockets, a real wire protocol — and cross-checks the result
// against the in-process channel backend. Because every payload is
// validated at the consumer, identical success on both transports
// proves the wire protocol delivered every byte to the right task.
//
// Both backends are driven through a reusable exec.RankSession: the
// rank plan (column spans, cross-rank edge lists) and the transport
// (channel fabric, or the TCP connection mesh) are built once and
// reused across repeated runs, so only the first run of each backend
// pays the wiring cost.
//
// The second half stands up cluster mode: a coordinator plus three
// workers, a wire.AppSpec job submitted through the client API, and
// the streamed result — the same graph now running with its ranks
// spread across the worker fleet, reusing one prepared configuration
// (plans, payload rows, live mesh) across repeated submissions.
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"log"
	"time"

	"taskbench/internal/cluster"
	"taskbench/internal/core"
	"taskbench/internal/kernels"
	"taskbench/internal/runtime"
	_ "taskbench/internal/runtime/all"
	"taskbench/internal/runtime/exec"
	"taskbench/internal/wire"
)

func main() {
	app := core.NewApp(core.MustNew(core.Params{
		Timesteps:   50,
		MaxWidth:    4,
		Dependence:  core.Stencil1DPeriodic,
		Kernel:      kernels.Config{Type: kernels.ComputeBound, Iterations: 4096},
		OutputBytes: 4096,
	}))
	app.Workers = 4

	fmt.Println("halo exchange on 4 ranks: in-process channels vs real TCP loopback")
	fmt.Printf("%d tasks, %d dependence edges, 4 KiB payloads, 3 runs per reused session\n\n",
		app.TotalTasks(), app.TotalDependencies())

	for _, name := range []string{"p2p", "tcp"} {
		rt, err := runtime.New(name)
		if err != nil {
			log.Fatal(err)
		}
		rb, ok := rt.(runtime.RankBacked)
		if !ok {
			log.Fatalf("%s is not rank-backed", name)
		}
		sess, err := exec.NewRankSession(app, rb.RankPolicy())
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		for run := 0; run < 3; run++ {
			stats, err := sess.Run()
			if err != nil {
				log.Fatalf("%s run %d: %v", name, run, err)
			}
			fmt.Printf("%-4s run %d  elapsed %12v  granularity %10v  %7.2f GFLOP/s\n",
				name, run, stats.Elapsed, stats.TaskGranularity(), stats.FlopsPerSecond()/1e9)
		}
		sess.Close()
		fmt.Println()
	}

	fmt.Println("The TCP transport pays per-message framing and kernel-crossing")
	fmt.Println("costs — the overhead gap is the 'network software stack' the")
	fmt.Println("paper's MsgOverhead profile parameter models.")
	fmt.Println()

	clusterDemo(app)
}

// clusterDemo reruns the same halo exchange through cluster mode: the
// job travels as a wire.AppSpec to a coordinator, which block-assigns
// the 4 ranks over 3 registered workers and streams the result back.
func clusterDemo(app *core.App) {
	fmt.Println("cluster mode: the same spec submitted to a coordinator + 3 workers")

	coord, err := cluster.Start(cluster.Options{Listen: "127.0.0.1:0"})
	if err != nil {
		log.Fatal(err)
	}
	defer coord.Close()
	for k := 0; k < 3; k++ {
		w := cluster.NewWorker(cluster.WorkerOptions{
			Coordinator: coord.Addr(),
			Name:        fmt.Sprintf("worker-%d", k+1),
		})
		go func() {
			if err := w.Run(); err != nil {
				log.Printf("worker: %v", err)
			}
		}()
		defer w.Close()
	}
	if _, err := coord.WaitWorkers(3, 10*time.Second); err != nil {
		log.Fatal(err)
	}

	cli, err := cluster.Dial(coord.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer cli.Close()

	// The job document is the spec schema from internal/wire — the
	// same JSON a file-based sweep or a remote client would ship.
	spec := wire.FromApp(app)
	for run := 0; run < 3; run++ {
		// Shrinking the kernel between submissions keeps the graph
		// shape fixed, so the coordinator reuses one prepared
		// configuration — the mesh is established on run 0 only.
		spec.Graphs[0].Iterations = 4096 >> uint(run)
		stats, err := cli.Run(spec)
		if err != nil {
			log.Fatalf("cluster run %d: %v", run, err)
		}
		fmt.Printf("job %d  iters %-5d  elapsed %12v  granularity %10v  ranks %d\n",
			run, spec.Graphs[0].Iterations, stats.Elapsed, stats.TaskGranularity(), stats.Workers)
	}
	st := coord.Stats()
	fmt.Printf("\nconfigs built %d, reused %d: the fleet's rank plans, payload\n", st.ConfigsBuilt, st.ConfigCacheHits)
	fmt.Println("rows and TCP mesh were provisioned once and shared by all jobs,")
	fmt.Println("with every payload still validated at its consuming task. Here")
	fmt.Println("the workers share this process; run `taskbenchd worker` on")
	fmt.Println("separate machines and the same protocol spans real nodes.")
}
