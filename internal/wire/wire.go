// Package wire serializes Task Bench configurations as JSON so that
// experiment sweeps can be described in files, shipped to remote
// workers, and reproduced exactly. The schema mirrors core.Params plus
// the app-level fields.
package wire

import (
	"encoding/json"
	"fmt"
	"io"

	"taskbench/internal/core"
)

// GraphSpec is the JSON form of one task graph. The kernel fields are
// the embedded KernelSpec: encoding/json promotes them, so they render
// flat, between fraction and output_bytes, and the binary schedule
// (binary.go) visits them at the same position.
type GraphSpec struct {
	Steps    int     `json:"steps"`
	Width    int     `json:"width"`
	Type     string  `json:"type"`
	Radix    int     `json:"radix,omitempty"`
	Period   int     `json:"period,omitempty"`
	Fraction float64 `json:"fraction,omitempty"`
	KernelSpec
	Output  int    `json:"output_bytes,omitempty"`
	Scratch int64  `json:"scratch_bytes,omitempty"`
	Seed    uint64 `json:"seed,omitempty"`
}

// AppSpec is the JSON form of a full configuration.
type AppSpec struct {
	Graphs   []GraphSpec `json:"graphs"`
	Workers  int         `json:"workers,omitempty"`
	Nodes    int         `json:"nodes,omitempty"`
	Validate *bool       `json:"validate,omitempty"`
}

// FromApp converts a live configuration into its JSON form.
func FromApp(app *core.App) AppSpec {
	spec := AppSpec{Workers: app.Workers, Nodes: app.Nodes}
	if !app.Validate {
		f := false
		spec.Validate = &f
	}
	for _, g := range app.Graphs {
		spec.Graphs = append(spec.Graphs, GraphSpec{
			Steps: g.Timesteps, Width: g.MaxWidth, Type: g.Dependence.String(),
			Radix: g.Radix, Period: g.Period, Fraction: g.Fraction,
			KernelSpec: KernelSpecOf(g.Kernel),
			Output:     g.OutputBytes, Scratch: g.ScratchBytes, Seed: g.Seed,
		})
	}
	return spec
}

// Check validates the spec as ToApp does, without building anything.
func (spec AppSpec) Check() error {
	if len(spec.Graphs) == 0 {
		return fmt.Errorf("wire: spec has no graphs")
	}
	for gi := range spec.Graphs {
		if _, err := spec.Params(gi); err != nil {
			return err
		}
	}
	return nil
}

// Params returns the core.Params of graph gi, validated and normalised
// (core.Params.Normalize): what ToApp builds the graph from, and what
// a caller that only checks a spec's limits reads.
func (spec AppSpec) Params(gi int) (core.Params, error) {
	gs := spec.Graphs[gi]
	dep, err := core.ParseDependenceType(gs.Type)
	if err != nil {
		return core.Params{}, fmt.Errorf("wire: graph %d: %w", gi, err)
	}
	k, err := gs.ToConfig()
	if err != nil {
		return core.Params{}, fmt.Errorf("wire: graph %d: %w", gi, err)
	}
	p, err := core.Params{
		GraphID: gi, Timesteps: gs.Steps, MaxWidth: gs.Width, Dependence: dep,
		Radix: gs.Radix, Period: gs.Period, Fraction: gs.Fraction,
		Kernel: k, OutputBytes: gs.Output, ScratchBytes: gs.Scratch, Seed: gs.Seed,
	}.Normalize()
	if err != nil {
		return core.Params{}, fmt.Errorf("wire: graph %d: %w", gi, err)
	}
	return p, nil
}

// ToApp validates the spec and builds a runnable configuration.
func (spec AppSpec) ToApp() (*core.App, error) {
	if err := spec.Check(); err != nil {
		return nil, err
	}
	app := &core.App{Workers: spec.Workers, Nodes: spec.Nodes, Validate: true}
	if spec.Validate != nil {
		app.Validate = *spec.Validate
	}
	for gi := range spec.Graphs {
		p, _ := spec.Params(gi) // valid: Check passed
		app.Graphs = append(app.Graphs, core.MustNew(p))
	}
	return app, nil
}

// Encode writes the spec as indented JSON.
func Encode(w io.Writer, spec AppSpec) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(spec)
}

// Decode reads a spec from JSON.
func Decode(r io.Reader) (AppSpec, error) {
	var spec AppSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return AppSpec{}, fmt.Errorf("wire: %w", err)
	}
	return spec, nil
}
