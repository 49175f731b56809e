// Package runtime defines the interface every Task Bench backend
// implements, and a registry of the available backends.
//
// Each backend is the Go analog of one of the paper's 15 programming
// systems (Table 3): it executes arbitrary task graphs described by
// internal/core using a particular scheduling and communication
// paradigm (bulk-synchronous phases, point-to-point messages, actors,
// events, work stealing, dynamic task discovery, a centralized
// controller, ...). As in the paper, the system-specific code is thin —
// graph structure, kernels and validation all live in the core library —
// so every benchmark runs unchanged on every backend.
package runtime

import (
	"fmt"
	"sort"
	"sync"

	"taskbench/internal/core"
	"taskbench/internal/runtime/exec"
)

// Runtime executes Task Bench applications under one scheduling
// paradigm.
type Runtime interface {
	// Name returns the registry name of the backend.
	Name() string
	// Info describes the backend's paradigm (paper Table 3).
	Info() Info
	// Run executes every graph of the app to completion, validating
	// all task inputs (unless app.Validate is false), and returns
	// timing statistics. Run reports an error if any task input fails
	// validation or the app cannot be executed.
	Run(app *core.App) (core.RunStats, error)
}

// PolicyBacked is implemented by the backends registered with
// RegisterPolicy, which run through the shared exec.Engine. Policy
// returns a fresh instance of the backend's scheduling policy, letting
// callers drive a reusable exec.Session directly — an METG sweep builds
// one Plan per configuration and reruns it at every measurement point
// instead of paying O(tasks) reconstruction per point. Every backend
// but serial implements exactly one of PolicyBacked and RankBacked.
type PolicyBacked interface {
	Policy() exec.Policy
}

// RankBacked is implemented by the backends registered with
// RegisterRanks, which run through the shared exec.RankEngine.
// RankPolicy returns a fresh instance of the backend's rank policy,
// letting callers drive a reusable exec.RankSession directly — a
// distributed METG sweep builds one RankPlan (spans, cross-rank edges,
// fabric wiring) per configuration and reruns it at every measurement
// point.
type RankBacked interface {
	RankPolicy() exec.RankPolicy
}

// Info is the backend metadata rendered into the paper's Table 3/4
// analog by cmd/figures.
type Info struct {
	// Name is the registry name.
	Name string
	// Analog names the paper system this backend models.
	Analog string
	// Paradigm is the scheduling paradigm (actor model, task-based,
	// message passing, ...).
	Paradigm string
	// Parallelism is "explicit", "implicit" or "both".
	Parallelism string
	// Distributed reports whether the backend partitions work into
	// rank-like address spaces with message-based communication.
	Distributed bool
	// Async reports whether the backend overlaps communication with
	// computation (no global phase structure).
	Async bool
	// Notes captures salient implementation details.
	Notes string
}

var (
	regMu    sync.RWMutex
	registry = map[string]func() Runtime{}
)

// Register adds a backend factory under a unique name. Backends
// register themselves from init functions; Register panics on
// duplicates, which would be a programming error. Only serial — the
// reference the others are checked against — registers a hand-written
// Runtime; every other backend is an Info plus a policy (RegisterPolicy,
// RegisterRanks).
func Register(name string, factory func() Runtime) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("runtime: duplicate backend %q", name))
	}
	registry[name] = factory
}

// RegisterPolicy registers a shared-memory backend: its Table 3
// metadata and the scheduling policy it plugs into exec.Engine.
func RegisterPolicy(info Info, policy func() exec.Policy) {
	Register(info.Name, func() Runtime { return policyBackend{described{info}, policy} })
}

// RegisterRanks registers a rank-based backend: its Table 3 metadata
// and the rank policy it plugs into exec.RankEngine.
func RegisterRanks(info Info, policy func() exec.RankPolicy) {
	Register(info.Name, func() Runtime { return rankBackend{described{info}, policy} })
}

// described supplies the metadata half of Runtime.
type described struct{ info Info }

func (d described) Name() string { return d.info.Name }
func (d described) Info() Info   { return d.info }

// policyBackend and rankBackend are deliberately two types: callers
// type-switch on PolicyBacked / RankBacked to pick a session kind, so a
// backend must be exactly one of them.
type policyBackend struct {
	described
	policy func() exec.Policy
}

func (b policyBackend) Policy() exec.Policy { return b.policy() }

func (b policyBackend) Run(app *core.App) (core.RunStats, error) {
	return exec.RunPolicy(app, b.policy())
}

type rankBackend struct {
	described
	policy func() exec.RankPolicy
}

func (b rankBackend) RankPolicy() exec.RankPolicy { return b.policy() }

func (b rankBackend) Run(app *core.App) (core.RunStats, error) {
	return exec.RunRanks(app, b.policy())
}

// New instantiates a registered backend by name.
func New(name string) (Runtime, error) {
	regMu.RLock()
	factory, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("runtime: unknown backend %q (have %v)", name, Names())
	}
	return factory(), nil
}

// Names returns the sorted names of all registered backends.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
