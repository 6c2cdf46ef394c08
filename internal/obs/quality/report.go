package quality

import (
	"encoding/json"
	"fmt"
	"html"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"after/internal/obs"
)

// This file is the fused run-report builder behind `aftersim -report`: it
// scans a directory for the three artifact families the harness writes —
// OBS_<exp>.json (latency telemetry), QUALITY_<exp>.json (this package's
// snapshots) and BENCH_*.json (the benchmark history) — and joins them into
// one self-contained HTML dashboard; per-label CPU is `go tool pprof -tags`
// on the cpu_<exp>.pb.gz profiles. Zero external dependencies: styling is an
// inline <style> block and every sparkline is inline SVG, so the file renders
// identically from a CI artifact tab, an email attachment, or file://.

// benchRecord is the slice of exp.BenchReport the report needs. Decoding with
// a local struct (unknown fields ignored) keeps the dependency arrow pointing
// obs/quality ← exp rather than creating a cycle, and makes the joiner
// tolerant of schema growth in either direction.
type benchRecord struct {
	Timestamp string `json:"timestamp"`
	GoVersion string `json:"go_version"`
	NumCPU    int    `json:"num_cpu"`
	Converter struct {
		SweepMicros float64 `json:"sweep_us"`
		BytesPerOp  float64 `json:"sweep_bytes_per_op"`
	} `json:"converter"`
	DOG struct {
		WallMs float64 `json:"wall_ms"`
	} `json:"dog"`
	Steppers []struct {
		Name       string  `json:"name"`
		StepMicros float64 `json:"step_us"`
	} `json:"steppers"`
	Training struct {
		WallMs float64 `json:"wall_ms"`
	} `json:"training"`
	Table2 struct {
		SequentialMs float64 `json:"sequential_ms"`
		ParallelMs   float64 `json:"parallel_ms"`
		Speedup      float64 `json:"speedup"`
	} `json:"table2"`
	Notes []string `json:"notes"`

	file string // basename, for provenance lines
}

// reportInputs is everything the scanner found, ready for rendering.
type reportInputs struct {
	dir     string
	obsRuns []obsRun
	quality []qualityRun
	bench   []benchRecord
	skipped []string // unparseable files, noted in the dashboard footer
}

type obsRun struct {
	exp  string
	file string
	snap obs.Snapshot
}

type qualityRun struct {
	exp  string
	file string
	snap Snapshot
}

// expFromArtifact extracts "table2" from "OBS_table2.json" / "QUALITY_table2.json".
func expFromArtifact(base, prefix string) string {
	return strings.TrimSuffix(strings.TrimPrefix(base, prefix), ".json")
}

// scanReportInputs reads every recognized artifact in dir. Unreadable or
// truncated files (a crashed run's torn write predating the atomic-write fix,
// or a foreign file matching the glob) are skipped with a note instead of
// failing the whole report.
func scanReportInputs(dir string) (reportInputs, error) {
	in := reportInputs{dir: dir}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return in, fmt.Errorf("report: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		path := filepath.Join(dir, name)
		switch {
		case strings.HasPrefix(name, "OBS_") && strings.HasSuffix(name, ".json"):
			var s obs.Snapshot
			if err := decodeJSONFile(path, &s); err != nil {
				in.skipped = append(in.skipped, fmt.Sprintf("%s: %v", name, err))
				continue
			}
			in.obsRuns = append(in.obsRuns, obsRun{exp: expFromArtifact(name, "OBS_"), file: name, snap: s})
		case strings.HasPrefix(name, "QUALITY_") && strings.HasSuffix(name, ".json"):
			var s Snapshot
			if err := decodeJSONFile(path, &s); err != nil {
				in.skipped = append(in.skipped, fmt.Sprintf("%s: %v", name, err))
				continue
			}
			in.quality = append(in.quality, qualityRun{exp: expFromArtifact(name, "QUALITY_"), file: name, snap: s})
		case strings.HasPrefix(name, "BENCH_") && strings.HasSuffix(name, ".json"):
			var b benchRecord
			if err := decodeJSONFile(path, &b); err != nil {
				in.skipped = append(in.skipped, fmt.Sprintf("%s: %v", name, err))
				continue
			}
			// BENCH_serve.json and BENCH_scale.json share the prefix but
			// carry no stepper rows; they are not -exp bench reports.
			if len(b.Steppers) == 0 {
				continue
			}
			b.file = name
			in.bench = append(in.bench, b)
		}
	}
	sort.Slice(in.obsRuns, func(i, j int) bool { return in.obsRuns[i].exp < in.obsRuns[j].exp })
	sort.Slice(in.quality, func(i, j int) bool { return in.quality[i].exp < in.quality[j].exp })
	// Bench history in chronological order: timestamps are RFC3339, so the
	// lexicographic order is the time order; ties fall back to the filename.
	sort.Slice(in.bench, func(i, j int) bool {
		if in.bench[i].Timestamp != in.bench[j].Timestamp {
			return in.bench[i].Timestamp < in.bench[j].Timestamp
		}
		return in.bench[i].file < in.bench[j].file
	})
	sort.Strings(in.skipped)
	return in, nil
}

func decodeJSONFile(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// WriteReport scans dir for OBS_/QUALITY_/BENCH_ artifacts and writes the
// fused dashboard to outPath (atomically). It fails only when the directory
// itself is unreadable or contains no recognizable artifacts at all; bad
// individual files degrade to a footer note.
func WriteReport(dir, outPath string) error {
	in, err := scanReportInputs(dir)
	if err != nil {
		return err
	}
	if len(in.obsRuns) == 0 && len(in.quality) == 0 && len(in.bench) == 0 {
		return fmt.Errorf("report: no OBS_*.json, QUALITY_*.json or BENCH_*.json artifacts in %s", dir)
	}
	return obs.WriteFileAtomic(outPath, []byte(renderReport(in)))
}

// sparkline renders values as an inline SVG polyline, scaled to its own
// min..max (flat series draw a midline). Width grows with the series so dense
// bench histories stay readable.
func sparkline(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	const h = 24.0
	w := math.Max(60, math.Min(240, float64(len(values))*12))
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if math.IsInf(lo, 1) { // nothing finite
		return ""
	}
	span := hi - lo
	var pts strings.Builder
	for i, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = lo
		}
		x := 2.0
		if len(values) > 1 {
			x = 2 + (w-4)*float64(i)/float64(len(values)-1)
		} else {
			x = w / 2
		}
		y := h / 2
		if span > 0 {
			y = 2 + (h-4)*(1-(v-lo)/span)
		}
		if i > 0 {
			pts.WriteByte(' ')
		}
		fmt.Fprintf(&pts, "%.1f,%.1f", x, y)
	}
	return fmt.Sprintf(
		`<svg class="spark" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f" role="img" aria-label="trend">`+
			`<polyline fill="none" stroke="currentColor" stroke-width="1.5" points="%s"/></svg>`,
		w, h, w, h, pts.String())
}

func esc(s string) string { return html.EscapeString(s) }

func fmtF(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.1f", v)
	case math.Abs(v) >= 0.01:
		return fmt.Sprintf("%.4f", v)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}

func fmtNs(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.2fµs", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}

// renderReport builds the full HTML document. Sections appear only when their
// inputs exist, so a quality-only directory still yields a useful page.
func renderReport(in reportInputs) string {
	var b strings.Builder
	b.WriteString(`<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8">
<title>aftersim run report</title>
<style>
body{font:14px/1.5 -apple-system,"Segoe UI",Roboto,Helvetica,Arial,sans-serif;margin:2rem auto;max-width:72rem;padding:0 1rem;color:#1a1a2e;background:#fdfdfd}
h1{font-size:1.5rem;border-bottom:2px solid #1a1a2e;padding-bottom:.3rem}
h2{font-size:1.15rem;margin-top:2rem;border-bottom:1px solid #ccd;padding-bottom:.2rem}
h3{font-size:1rem;margin-bottom:.3rem}
table{border-collapse:collapse;margin:.5rem 0 1rem;width:100%}
th,td{border:1px solid #dde;padding:.3rem .6rem;text-align:right;font-variant-numeric:tabular-nums}
th:first-child,td:first-child{text-align:left}
th{background:#eef0f6}
tr:nth-child(even) td{background:#f7f8fb}
.spark{vertical-align:middle;color:#3a5fcd}
.alert{color:#b22;font-weight:600}
.ok{color:#2a7}
.muted{color:#778;font-size:.85rem}
code{background:#eef;padding:0 .25em;border-radius:3px}
footer{margin-top:3rem;font-size:.8rem;color:#889;border-top:1px solid #dde;padding-top:.5rem}
</style></head><body>
`)
	fmt.Fprintf(&b, "<h1>aftersim run report</h1>\n<p class=\"muted\">fused from %s — %d OBS, %d QUALITY, %d BENCH artifact(s)</p>\n",
		esc(in.dir), len(in.obsRuns), len(in.quality), len(in.bench))

	renderQualitySection(&b, in.quality)
	renderSLOSection(&b, in.obsRuns)
	renderObsSection(&b, in.obsRuns)
	renderBenchSection(&b, in.bench)

	b.WriteString("<footer>")
	if len(in.skipped) > 0 {
		b.WriteString("<p class=\"alert\">Skipped unreadable artifacts:</p><ul>")
		for _, s := range in.skipped {
			fmt.Fprintf(&b, "<li>%s</li>", esc(s))
		}
		b.WriteString("</ul>")
	}
	b.WriteString("Generated by <code>aftersim -report</code>. Self-contained: no external scripts, styles, or fonts.</footer>\n</body></html>\n")
	return b.String()
}

// renderQualitySection emits one block per QUALITY_<exp>.json: attribution
// decomposition, regret vs oracle, churn, detector states, and alerts.
func renderQualitySection(b *strings.Builder, runs []qualityRun) {
	if len(runs) == 0 {
		return
	}
	b.WriteString("<h2>Quality telemetry</h2>\n")
	for _, run := range runs {
		fmt.Fprintf(b, "<h3>%s <span class=\"muted\">(%s)</span></h3>\n", esc(run.exp), esc(run.file))
		if run.snap.AlertsTotal > 0 {
			fmt.Fprintf(b, "<p class=\"alert\">%d drift alert(s) fired during this run.</p>\n", run.snap.AlertsTotal)
		} else {
			b.WriteString("<p class=\"ok\">No drift alerts.</p>\n")
		}
		recs := make([]string, 0, len(run.snap.Recommenders))
		for name := range run.snap.Recommenders {
			recs = append(recs, name)
		}
		sort.Strings(recs)
		b.WriteString("<table><tr><th>recommender</th><th>episodes</th><th>utility</th><th>pref</th><th>social</th><th>gate (forfeited)</th>" +
			"<th>regret rate</th><th>churn</th><th>alerts</th></tr>\n")
		for _, name := range recs {
			rr := run.snap.Recommenders[name]
			fmt.Fprintf(b, "<tr><td>%s</td><td>%d</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%d</td></tr>\n",
				esc(name), rr.Episodes, fmtF(rr.Attribution.Total), fmtF(rr.Attribution.Pref),
				fmtF(rr.Attribution.Social), fmtF(rr.Attribution.Gate),
				fmtF(rr.Regret.Rate), fmtF(rr.Churn.Mean), len(rr.Alerts))
		}
		b.WriteString("</table>\n")
		// Alert detail rows, if any.
		var alerts []Alert
		for _, name := range recs {
			alerts = append(alerts, run.snap.Recommenders[name].Alerts...)
		}
		if len(alerts) > 0 {
			sort.Slice(alerts, func(i, j int) bool {
				if alerts[i].Series != alerts[j].Series {
					return alerts[i].Series < alerts[j].Series
				}
				return alerts[i].Step < alerts[j].Step
			})
			b.WriteString("<table><tr><th>series</th><th>step</th><th>detector</th><th>direction</th><th>stat</th><th>threshold</th><th>value</th><th>baseline</th></tr>\n")
			for _, a := range alerts {
				fmt.Fprintf(b, "<tr><td>%s</td><td>%d</td><td>%s</td><td class=\"alert\">%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>\n",
					esc(a.Series), a.Step, esc(a.Detector), esc(a.Direction),
					fmtF(a.Stat), fmtF(a.Threshold), fmtF(a.Value), fmtF(a.Baseline))
			}
			b.WriteString("</table>\n")
		}
	}
}

// renderSLOSection surfaces the error-budget trackers embedded in OBS
// snapshots as slo.<name>.* gauges (synced at drain by slo.Tracker.Snapshot):
// burn rates across the four alert windows, budget consumed, and whether the
// fast (page) or slow (ticket) multi-window alert was firing at snapshot
// time. Runs without SLO gauges are simply absent.
func renderSLOSection(b *strings.Builder, runs []obsRun) {
	type sloRow struct {
		exp, name string
		gauges    map[string]float64
		good, bad int64
	}
	var rows []sloRow
	for _, run := range runs {
		byName := map[string]map[string]float64{}
		for g, v := range run.snap.Gauges {
			if !strings.HasPrefix(g, "slo.") {
				continue
			}
			rest := strings.TrimPrefix(g, "slo.")
			dot := strings.LastIndex(rest, ".")
			if dot <= 0 {
				continue
			}
			name, field := rest[:dot], rest[dot+1:]
			if byName[name] == nil {
				byName[name] = map[string]float64{}
			}
			byName[name][field] = v
		}
		for name, gauges := range byName {
			rows = append(rows, sloRow{
				exp: run.exp, name: name, gauges: gauges,
				good: run.snap.Counters["slo."+name+".good"],
				bad:  run.snap.Counters["slo."+name+".bad"],
			})
		}
	}
	if len(rows) == 0 {
		return
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].exp != rows[j].exp {
			return rows[i].exp < rows[j].exp
		}
		return rows[i].name < rows[j].name
	})
	b.WriteString("<h2>SLO error budgets</h2>\n")
	b.WriteString("<p class=\"muted\">Multi-window burn-rate alerting: fast fires at burn ≥ 14.4 on both 5m and 1h (pages — budget gone in hours), slow at ≥ 6 on both 30m and 6h (tickets). Values are as of the run's drain snapshot.</p>\n")
	b.WriteString("<table><tr><th>run / tracker</th><th>good</th><th>bad</th><th>burn 5m</th><th>burn 30m</th><th>burn 1h</th><th>burn 6h</th><th>budget used</th><th>alert</th></tr>\n")
	for _, r := range rows {
		alert := "<span class=\"ok\">ok</span>"
		if r.gauges["fast_burn"] > 0 {
			alert = "<span class=\"alert\">FAST BURN</span>"
		} else if r.gauges["slow_burn"] > 0 {
			alert = "<span class=\"alert\">slow burn</span>"
		}
		fmt.Fprintf(b, "<tr><td>%s / %s</td><td>%d</td><td>%d</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%.1f%%</td><td>%s</td></tr>\n",
			esc(r.exp), esc(r.name), r.good, r.bad,
			fmtF(r.gauges["burn_5m"]), fmtF(r.gauges["burn_30m"]),
			fmtF(r.gauges["burn_1h"]), fmtF(r.gauges["burn_6h"]),
			100*r.gauges["budget_consumed"], alert)
	}
	b.WriteString("</table>\n")
}

// renderObsSection emits per-experiment latency histograms with a sparkline
// over [p50 p95 p99 max] per row, plus cross-run merged rows when the same
// histogram name appears in several experiments (HistogramSnapshot.Merge).
func renderObsSection(b *strings.Builder, runs []obsRun) {
	if len(runs) == 0 {
		return
	}
	b.WriteString("<h2>Latency telemetry (obs)</h2>\n")
	merged := map[string]obs.HistogramSnapshot{}
	for _, run := range runs {
		fmt.Fprintf(b, "<h3>%s <span class=\"muted\">(%s)</span></h3>\n", esc(run.exp), esc(run.file))
		names := make([]string, 0, len(run.snap.Histograms))
		for name := range run.snap.Histograms {
			names = append(names, name)
		}
		sort.Strings(names)
		if len(names) > 0 {
			b.WriteString("<table><tr><th>histogram</th><th>count</th><th>mean</th><th>p50</th><th>p95</th><th>p99</th><th>max</th><th>shape</th></tr>\n")
			for _, name := range names {
				h := run.snap.Histograms[name]
				merged[name] = merged[name].Merge(h)
				fmt.Fprintf(b, "<tr><td>%s</td><td>%d</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>\n",
					esc(name), h.Count, fmtNs(h.MeanNs), fmtNs(float64(h.P50Ns)),
					fmtNs(float64(h.P95Ns)), fmtNs(float64(h.P99Ns)), fmtNs(float64(h.MaxNs)),
					sparkline([]float64{float64(h.P50Ns), float64(h.P95Ns), float64(h.P99Ns), float64(h.MaxNs)}))
			}
			b.WriteString("</table>\n")
		}
		// Counters compacted into one muted line; they are context, not trend.
		if len(run.snap.Counters) > 0 {
			cnames := make([]string, 0, len(run.snap.Counters))
			for name := range run.snap.Counters {
				cnames = append(cnames, name)
			}
			sort.Strings(cnames)
			parts := make([]string, 0, len(cnames))
			for _, name := range cnames {
				parts = append(parts, fmt.Sprintf("%s=%d", name, run.snap.Counters[name]))
			}
			fmt.Fprintf(b, "<p class=\"muted\">counters: %s</p>\n", esc(strings.Join(parts, "  ")))
		}
	}
	if len(runs) > 1 && len(merged) > 0 {
		b.WriteString("<h3>Merged across experiments</h3>\n<p class=\"muted\">Counts and sums are exact; quantiles are count-weighted approximations bounded by the exact max (see HistogramSnapshot.Merge).</p>\n")
		names := make([]string, 0, len(merged))
		for name := range merged {
			names = append(names, name)
		}
		sort.Strings(names)
		b.WriteString("<table><tr><th>histogram</th><th>count</th><th>mean</th><th>p50≈</th><th>p95≈</th><th>p99≈</th><th>max</th></tr>\n")
		for _, name := range names {
			h := merged[name]
			fmt.Fprintf(b, "<tr><td>%s</td><td>%d</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>\n",
				esc(name), h.Count, fmtNs(h.MeanNs), fmtNs(float64(h.P50Ns)),
				fmtNs(float64(h.P95Ns)), fmtNs(float64(h.P99Ns)), fmtNs(float64(h.MaxNs)))
		}
		b.WriteString("</table>\n")
	}
}

// renderBenchSection emits the benchmark history as trend rows: one sparkline
// per tracked quantity over the chronological BENCH_*.json sequence.
func renderBenchSection(b *strings.Builder, bench []benchRecord) {
	if len(bench) == 0 {
		return
	}
	b.WriteString("<h2>Benchmark history</h2>\n")
	latest := bench[len(bench)-1]
	fmt.Fprintf(b, "<p class=\"muted\">%d run(s); latest %s (%s, %d CPU)</p>\n",
		len(bench), esc(latest.Timestamp), esc(latest.GoVersion), latest.NumCPU)

	type trend struct {
		label  string
		values []float64
	}
	pull := func(f func(benchRecord) float64) []float64 {
		out := make([]float64, len(bench))
		for i, r := range bench {
			out[i] = f(r)
		}
		return out
	}
	trends := []trend{
		{"converter sweep (µs)", pull(func(r benchRecord) float64 { return r.Converter.SweepMicros })},
		{"converter sweep (B/op)", pull(func(r benchRecord) float64 { return r.Converter.BytesPerOp })},
		{"DOG build (ms)", pull(func(r benchRecord) float64 { return r.DOG.WallMs })},
		{"training (ms)", pull(func(r benchRecord) float64 { return r.Training.WallMs })},
		{"table2 sequential (ms)", pull(func(r benchRecord) float64 { return r.Table2.SequentialMs })},
		{"table2 parallel (ms)", pull(func(r benchRecord) float64 { return r.Table2.ParallelMs })},
		{"table2 speedup (×)", pull(func(r benchRecord) float64 { return r.Table2.Speedup })},
	}
	// Stepper latencies keyed by name across runs (missing runs carry NaN,
	// which the sparkline flattens to the series minimum).
	stepperNames := map[string]bool{}
	for _, r := range bench {
		for _, s := range r.Steppers {
			stepperNames[s.Name] = true
		}
	}
	snames := make([]string, 0, len(stepperNames))
	for name := range stepperNames {
		snames = append(snames, name)
	}
	sort.Strings(snames)
	for _, name := range snames {
		vals := make([]float64, len(bench))
		for i, r := range bench {
			vals[i] = math.NaN()
			for _, s := range r.Steppers {
				if s.Name == name {
					vals[i] = s.StepMicros
					break
				}
			}
		}
		trends = append(trends, trend{fmt.Sprintf("step %s (µs)", name), vals})
	}

	b.WriteString("<table><tr><th>quantity</th><th>first</th><th>latest</th><th>Δ%</th><th>trend</th></tr>\n")
	for _, t := range trends {
		first, last := firstLastFinite(t.values)
		delta := "—"
		if first != 0 && !math.IsNaN(first) && !math.IsNaN(last) {
			delta = fmt.Sprintf("%+.1f%%", 100*(last-first)/first)
		}
		fmt.Fprintf(b, "<tr><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>\n",
			esc(t.label), fmtF(first), fmtF(last), delta, sparkline(t.values))
	}
	b.WriteString("</table>\n")
	if len(latest.Notes) > 0 {
		b.WriteString("<p class=\"muted\">latest run notes: ")
		for i, n := range latest.Notes {
			if i > 0 {
				b.WriteString(" · ")
			}
			b.WriteString(esc(n))
		}
		b.WriteString("</p>\n")
	}
}

// firstLastFinite returns the first and last finite values of a series (NaN
// when the series has none).
func firstLastFinite(vals []float64) (first, last float64) {
	first, last = math.NaN(), math.NaN()
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		if math.IsNaN(first) {
			first = v
		}
		last = v
	}
	return first, last
}
