package quality

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"after/internal/obs"
	"after/internal/occlusion"
)

// writeFile is a test helper for seeding artifact directories.
func writeFile(t *testing.T, dir, name, content string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

const testBenchJSON = `{
  "timestamp": "2026-01-02T03:04:05Z",
  "go_version": "go1.24.0",
  "num_cpu": 4,
  "converter": {"sweep_us": 120.5, "sweep_bytes_per_op": 20480},
  "dog": {"wall_ms": 42.0},
  "steppers": [{"name": "POSHGNN", "step_us": 310.0}, {"name": "Greedy", "step_us": 12.0}],
  "training": {"wall_ms": 900.0},
  "table2": {"sequential_ms": 5000, "parallel_ms": 1400, "speedup": 3.57},
  "notes": ["note one"]
}`

// TestWriteReportFused: a directory holding all three artifact families plus
// one corrupt file yields a single self-contained HTML page that mentions
// every input and flags the corrupt one. The serve and scale reports share
// the BENCH_ prefix but are not bench runs: the history must leave them out.
func TestWriteReportFused(t *testing.T) {
	dir := t.TempDir()

	// OBS artifact via the real registry, so the schema can't drift.
	reg := obs.NewRegistry()
	prev := obs.SetEnabled(true)
	reg.Counter("sim.episodes").Add(7)
	reg.Histogram(`sim.step{rec="POSHGNN"}`).ObserveNs(1500)
	obs.SetEnabled(prev)
	if err := reg.WriteJSON(filepath.Join(dir, "OBS_table2.json")); err != nil {
		t.Fatal(err)
	}

	// QUALITY artifact via a real collector (drives the quality section).
	qualityOn(t)
	c := NewCollector(Config{})
	room := testRoom(t, 21, 10, 8)
	dog := occlusion.BuildDOG(0, room.Traj, room.AvatarRadius)
	rendered := randomTrace(rand.New(rand.NewSource(77)), room.N, len(dog.Frames), 0, 0.5)
	c.RecordEpisode("POSHGNN", room, dog, rendered, 0.5)
	if err := c.WriteJSON(filepath.Join(dir, "QUALITY_table2.json")); err != nil {
		t.Fatal(err)
	}

	writeFile(t, dir, "BENCH_baseline.json", testBenchJSON)
	writeFile(t, dir, "BENCH_latest.json", strings.Replace(testBenchJSON,
		`"timestamp": "2026-01-02T03:04:05Z"`, `"timestamp": "2026-01-03T03:04:05Z"`, 1))
	writeFile(t, dir, "BENCH_serve.json", `{"title": "afterd under load", "deadline_ms": 50,
  "rows": [{"pattern": "steady", "offered_rps": 150, "accepted_p99_ms": 20}]}`)
	writeFile(t, dir, "BENCH_scale.json", `{"timestamp": "2026-01-01T00:00:00Z", "num_cpu": 2,
  "converter": {"sweep_us": 0}, "steppers": null, "scale": [{"n": 100, "step_us": 66}]}`)
	writeFile(t, dir, "BENCH_broken.json", `{"timestamp": "2026-`) // torn write
	writeFile(t, dir, "unrelated.txt", "ignore me")

	out := filepath.Join(dir, "REPORT.html")
	if err := WriteReport(dir, out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	page := string(data)

	for _, want := range []string{
		"<!DOCTYPE html>",
		"Quality telemetry",
		"Latency telemetry",
		"Benchmark history",
		"POSHGNN",
		"<svg",              // sparklines render inline
		"BENCH_broken.json", // corrupt file surfaced in the footer
		"sim.episodes=7",    // counters line
		"table2 speedup",    // bench trend row
		"2 run(s)",          // the two bench reports, not serve or scale
		"<td>converter sweep (µs)</td><td>120.5</td><td>120.5</td>",
		"<td>converter sweep (B/op)</td><td>20480.0</td><td>20480.0</td>",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// Self-contained: no external fetches of any kind.
	for _, banned := range []string{"<script", "src=", "http://", "https://", "@import", "<link"} {
		if strings.Contains(page, banned) {
			t.Errorf("report contains external reference marker %q", banned)
		}
	}
}

// TestWriteReportEmptyDir fails loudly instead of writing a blank page.
func TestWriteReportEmptyDir(t *testing.T) {
	dir := t.TempDir()
	if err := WriteReport(dir, filepath.Join(dir, "REPORT.html")); err == nil {
		t.Fatal("expected an error on a directory with no artifacts")
	}
}

// TestSparklineShapes pins degenerate sparkline inputs.
func TestSparklineShapes(t *testing.T) {
	if s := sparkline(nil); s != "" {
		t.Fatalf("empty series rendered %q", s)
	}
	if s := sparkline([]float64{1, 2, 3}); !strings.Contains(s, "<polyline") {
		t.Fatalf("no polyline in %q", s)
	}
	if s := sparkline([]float64{5, 5, 5}); !strings.Contains(s, "<polyline") {
		t.Fatalf("flat series must still draw a midline, got %q", s)
	}
}
