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

// ToApp validates the spec and builds a runnable configuration.
func (spec AppSpec) ToApp() (*core.App, error) {
	if len(spec.Graphs) == 0 {
		return nil, fmt.Errorf("wire: spec has no graphs")
	}
	app := &core.App{Workers: spec.Workers, Nodes: spec.Nodes, Validate: true}
	if spec.Validate != nil {
		app.Validate = *spec.Validate
	}
	for gi, gs := range spec.Graphs {
		dep, err := core.ParseDependenceType(gs.Type)
		if err != nil {
			return nil, fmt.Errorf("wire: graph %d: %w", gi, err)
		}
		k, err := gs.ToConfig()
		if err != nil {
			return nil, fmt.Errorf("wire: graph %d: %w", gi, err)
		}
		g, err := core.New(core.Params{
			GraphID: gi, Timesteps: gs.Steps, MaxWidth: gs.Width, Dependence: dep,
			Radix: gs.Radix, Period: gs.Period, Fraction: gs.Fraction,
			Kernel: k, OutputBytes: gs.Output, ScratchBytes: gs.Scratch, Seed: gs.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("wire: graph %d: %w", gi, err)
		}
		app.Graphs = append(app.Graphs, g)
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
