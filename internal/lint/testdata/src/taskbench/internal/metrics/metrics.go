// Package metrics is a skeletal stand-in for the real
// taskbench/internal/metrics, occupying its import path so the
// lockorder analyzer resolves receivers exactly as it does against the
// real module.
package metrics

import "sync"

type Counter struct{}

func (c *Counter) Inc() {}

type CounterVec struct {
	mu sync.Mutex
}

func (v *CounterVec) With(value string) *Counter {
	v.mu.Lock()
	defer v.mu.Unlock()
	return &Counter{}
}

type Registry struct {
	mu sync.Mutex
}

func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	return &Counter{}
}

func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
}
