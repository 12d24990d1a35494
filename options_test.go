package intrawarp

import (
	"bytes"
	"context"
	"errors"
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"

	"intrawarp/internal/experiments"
)

// TestNewConfigDefaults checks that option-free construction reproduces
// the paper's Table 3 machine.
func TestNewConfigDefaults(t *testing.T) {
	cfg, err := NewConfig()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfg, DefaultConfig()) {
		t.Fatalf("NewConfig() != DefaultConfig():\n%+v\n%+v", cfg, DefaultConfig())
	}
}

// TestConfigOptionComposition checks options apply in order and compose.
func TestConfigOptionComposition(t *testing.T) {
	cfg, err := NewConfig(WithPolicy(SCC), WithDCBandwidth(2), WithPerfectL3(),
		WithWorkers(3), WithMaxCycles(12345))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.EU.Policy != SCC || cfg.Mem.DCLinesPerCycle != 2 || !cfg.Mem.PerfectL3 ||
		cfg.Workers != 3 || cfg.MaxCycles != 12345 {
		t.Fatalf("options not applied: %+v", cfg)
	}

	// Later options win over earlier ones.
	cfg, err = NewConfig(WithPolicy(BCC), WithPolicy(IvyBridge))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.EU.Policy != IvyBridge {
		t.Fatalf("last WithPolicy should win, got %v", cfg.EU.Policy)
	}

	// WithConfig replaces the base; trailing options refine it.
	base, _ := NewConfig(WithPolicy(SCC))
	cfg, err = NewConfig(WithConfig(base), WithDCBandwidth(2))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.EU.Policy != SCC || cfg.Mem.DCLinesPerCycle != 2 {
		t.Fatalf("WithConfig composition wrong: %+v", cfg)
	}
}

// TestInvalidOptions checks each rejecting option surfaces an error from
// the constructor or entry point it was passed to.
func TestInvalidOptions(t *testing.T) {
	if _, err := NewConfig(WithDCBandwidth(0)); err == nil {
		t.Fatal("WithDCBandwidth(0) accepted")
	}
	if _, err := NewConfig(WithMaxCycles(-1)); err == nil {
		t.Fatal("WithMaxCycles(-1) accepted")
	}
	if _, err := NewGPU(WithDCBandwidth(-3)); err == nil {
		t.Fatal("NewGPU with invalid option accepted")
	}
	g, err := NewGPU()
	if err != nil {
		t.Fatal(err)
	}
	w, err := WorkloadByName("bsearch")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunWorkloadCtx(context.Background(), g, w, WithSize(-1)); err == nil {
		t.Fatal("WithSize(-1) accepted")
	}
	if err := RunExperimentCtx(context.Background(), "rfarea", WithOutput(nil)); err == nil {
		t.Fatal("WithOutput(nil) accepted")
	}
	if _, err := NewSweep(SweepWorkloads("bsearch"), WithDCBandwidth(0)); err == nil {
		t.Fatal("NewSweep with WithDCBandwidth(0) accepted")
	}
}

// TestOptionEntryPointMatrix passes every option to every facade entry
// point. A pairing the option's documentation names must succeed; every
// other pairing must fail with an error naming both the option and the
// entry point. The runs use a cancelled context, so an applicable
// pairing that simulates stops with context.Canceled at its first
// cancellation check.
func TestOptionEntryPointMatrix(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	w, err := WorkloadByName("bsearch")
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGPU()
	if err != nil {
		t.Fatal(err)
	}
	entries := []struct {
		name string
		call func(Option) error
	}{
		{"NewConfig", func(o Option) error { _, err := NewConfig(o); return err }},
		{"NewGPU", func(o Option) error { _, err := NewGPU(o); return err }},
		{"RunWorkloadCtx", func(o Option) error { _, err := RunWorkloadCtx(cancelled, g, w, o); return err }},
		{"RunExperimentCtx", func(o Option) error {
			return RunExperimentCtx(cancelled, "table3", WithOutput(io.Discard), o)
		}},
		{"RunAllExperimentsCtx", func(o Option) error {
			return RunAllExperimentsCtx(cancelled, WithOutput(io.Discard), o)
		}},
		{"NewSweep", func(o Option) error { _, err := NewSweep(SweepWorkloads("bsearch"), o); return err }},
	}
	const (
		config     = "NewConfig NewGPU"
		experiment = "RunExperimentCtx RunAllExperimentsCtx"
	)
	options := []struct {
		name      string
		opt       Option
		appliesTo string
	}{
		{"WithSize", WithSize(256), "RunWorkloadCtx"},
		{"WithTimed", WithTimed(), "RunWorkloadCtx"},
		{"WithoutVerify", WithoutVerify(), "RunWorkloadCtx NewSweep"},
		{"WithOutput", WithOutput(io.Discard), experiment},
		{"WithQuick", WithQuick(), experiment + " NewSweep"},
		{"WithPolicy", WithPolicy(SCC), config},
		{"WithProbe", WithProbe(nil), config},
		{"WithConfig", WithConfig(DefaultConfig()), config},
		{"WithDCBandwidth", WithDCBandwidth(2), config + " NewSweep"},
		{"WithPerfectL3", WithPerfectL3(), config + " NewSweep"},
		{"WithMaxCycles", WithMaxCycles(1 << 20), config},
		{"WithWorkers", WithWorkers(2), config + " " + experiment + " NewSweep"},
		{"SweepWorkloads", SweepWorkloads("urng"), "NewSweep"},
		{"SweepPolicies", SweepPolicies(SCC), "NewSweep"},
		{"SweepWidths", SweepWidths(8), "NewSweep"},
		{"SweepSizes", SweepSizes(256), "NewSweep"},
		{"SweepVerify", SweepVerify(), "NewSweep"},
	}
	for _, o := range options {
		applies := strings.Fields(o.appliesTo)
		for _, e := range entries {
			err := e.call(o.opt)
			if slices.Contains(applies, e.name) {
				if err != nil && !errors.Is(err, context.Canceled) {
					t.Errorf("%s refused by %s, which it applies to: %v", o.name, e.name, err)
				}
				continue
			}
			if err == nil || !strings.Contains(err.Error(), o.name) || !strings.Contains(err.Error(), e.name) {
				t.Errorf("%s passed to %s: got %v, want an error naming both", o.name, e.name, err)
			}
		}
	}
}

// TestSweepOptionsMatchEngine checks that the shared options configure a
// sweep exactly as the engine's own sweep options do.
func TestSweepOptionsMatchEngine(t *testing.T) {
	got, err := NewSweep(SweepWorkloads("bsearch"), SweepPolicies(SCC, BCC), SweepWidths(8),
		SweepSizes(256), SweepVerify(), WithQuick(), WithWorkers(3), WithDCBandwidth(2),
		WithPerfectL3(), WithoutVerify())
	if err != nil {
		t.Fatal(err)
	}
	want, err := experiments.NewSweep(experiments.SweepWorkloads("bsearch"),
		experiments.SweepPolicies(SCC, BCC), experiments.SweepWidths(8), experiments.SweepSizes(256),
		experiments.SweepVerify(), experiments.SweepQuick(), experiments.SweepWorkers(3),
		experiments.SweepDCBandwidth(2), experiments.SweepPerfectL3(), experiments.SweepSkipChecks())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("facade sweep %+v, engine sweep %+v", got, want)
	}
}

// TestRunWorkloadOptions checks defaults (functional model, default
// size), WithTimed, and that a run uses the worker pool of its GPU.
func TestRunWorkloadOptions(t *testing.T) {
	w, err := WorkloadByName("bsearch")
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGPU()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	run, err := RunWorkloadCtx(ctx, g, w, WithSize(256))
	if err != nil {
		t.Fatal(err)
	}
	if run.TotalCycles != 0 {
		t.Fatal("default run should be functional (no timing)")
	}

	g, _ = NewGPU()
	timed, err := RunWorkloadCtx(ctx, g, w, WithSize(256), WithTimed())
	if err != nil {
		t.Fatal(err)
	}
	if timed.TotalCycles == 0 {
		t.Fatal("WithTimed produced no cycle count")
	}

	// The GPU's worker pool must not disturb determinism.
	g, _ = NewGPU(WithWorkers(1))
	serial, err := RunWorkloadCtx(ctx, g, w, WithSize(256))
	if err != nil {
		t.Fatal(err)
	}
	g, _ = NewGPU(WithWorkers(8))
	parallel, err := RunWorkloadCtx(ctx, g, w, WithSize(256))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("an 8-worker GPU's run diverged from serial statistics")
	}
}

// TestRunAllExperimentsFacade smoke-tests the ordered concurrent sweep
// through the public API.
func TestRunAllExperimentsFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep")
	}
	var buf bytes.Buffer
	if err := RunAllExperimentsCtx(context.Background(), WithOutput(&buf), WithQuick()); err != nil {
		t.Fatal(err)
	}
	first := strings.Index(buf.String(), "== ")
	if first != 0 {
		t.Fatalf("report should open with an experiment header, got %q", buf.String()[:40])
	}
	if !strings.Contains(buf.String(), "table4") {
		t.Fatal("combined report missing table4 section")
	}
}

// TestParsePolicyFacade checks the policy parser surfaced for CLI use.
func TestParsePolicyFacade(t *testing.T) {
	p, err := ParsePolicy("scc")
	if err != nil || p != SCC {
		t.Fatalf("ParsePolicy(scc) = %v, %v", p, err)
	}
	if _, err := ParsePolicy("nonsense"); err == nil {
		t.Fatal("bad policy accepted")
	}
}
