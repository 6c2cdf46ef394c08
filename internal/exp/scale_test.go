package exp

import (
	"path/filepath"
	"testing"
)

// TestRunScaleQuick smoke-runs the quick sweep (N ∈ {100, 200}) and checks
// the rows are structurally sane: sizes as requested, edges present, and
// the fused step measured.
func TestRunScaleQuick(t *testing.T) {
	rows, err := RunScale(Options{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].N != 100 || rows[1].N != 200 {
		t.Fatalf("quick sweep rows: %+v", rows)
	}
	for _, r := range rows {
		if r.Edges <= 0 {
			t.Errorf("N=%d: no occlusion edges in sweep room", r.N)
		}
		if r.StepMicros <= 0 || r.Allocs <= 0 {
			t.Errorf("N=%d: unmeasured step latency: %+v", r.N, r)
		}
		if r.Steps <= 0 {
			t.Errorf("N=%d: zero steps", r.N)
		}
	}
}

// TestCompareSteppers pins the regression gate: >25% slower fails, equal or
// faster passes, and steppers unknown to the baseline are ignored.
func TestCompareSteppers(t *testing.T) {
	base := &BenchReport{Steppers: []StepperBench{
		{Name: "POSHGNN", StepMicros: 100},
		{Name: "TGCN", StepMicros: 50},
		{Name: "Random", StepMicros: 0.1},
	}}
	latest := &BenchReport{Steppers: []StepperBench{
		{Name: "POSHGNN", StepMicros: 130}, // +30% and +30us → regression
		{Name: "TGCN", StepMicros: 60},     // +20% → within ratio threshold
		{Name: "Random", StepMicros: 0.4},  // +300% but +0.3us → under slack
		{Name: "NewModel", StepMicros: 999},
	}}
	regs := CompareSteppers(base, latest, 0.25)
	if len(regs) != 1 {
		t.Fatalf("want exactly the POSHGNN regression, got %v", regs)
	}
	if regs[0][:7] != "POSHGNN" {
		t.Errorf("wrong stepper flagged: %s", regs[0])
	}
	if got := CompareSteppers(base, base, 0.25); len(got) != 0 {
		t.Errorf("self-comparison regressed: %v", got)
	}
}

// TestBenchReportRoundTrip checks WriteJSON → ReadBenchReport preserves the
// fields the compare gate reads, including the new scale rows.
func TestBenchReportRoundTrip(t *testing.T) {
	r := &BenchReport{
		GoVersion: "go1.22",
		NumCPU:    4,
		Steppers:  []StepperBench{{Name: "POSHGNN", StepMicros: 123.4}},
		Scale:     []ScaleBench{{N: 100, Edges: 7, Steps: 6, StepMicros: 3, Allocs: 40}},
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := r.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBenchReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumCPU != 4 || len(got.Steppers) != 1 || got.Steppers[0].StepMicros != 123.4 {
		t.Fatalf("round trip mangled steppers: %+v", got)
	}
	if len(got.Scale) != 1 || got.Scale[0] != r.Scale[0] {
		t.Fatalf("round trip mangled scale rows: %+v", got.Scale)
	}
}
