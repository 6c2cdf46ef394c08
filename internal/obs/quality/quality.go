// Package quality is the repo's quality-telemetry layer — the counterpart to
// internal/obs's latency telemetry. Where obs answers "how fast was the
// harness", quality answers "how good were the recommendations, and is that
// quietly changing": it decomposes every episode's AFTER utility into its
// preference / social-presence / occlusion-gate components (bit-identical to
// the scored totals, via metrics.Attribute), measures per-step regret
// against the exact MWIS optimum (each frame's occlusion graph is a
// circular-arc graph, so mwis.SolveCircularArc solves it at every room
// size), tracks render-set churn, and runs streaming EWMA + CUSUM drift
// detectors over all three series, emitting structured alerts into the obs
// span trace, the /quality debug endpoint, and QUALITY_<exp>.json snapshots.
//
// Recording rides the obs enable switch and adds its own: On() is true only
// when both quality.SetEnabled(true) and obs recording are active, so the
// sim/resilience hooks are a two-atomic-load no-op in the disabled state
// (the same budget TestDisabledOverheadBudget enforces for obs itself).
// Like obs, quality is an observer, never a participant — it reads finished
// rendering traces and touches no RNG, so results are bit-identical with
// quality on or off.
package quality

import (
	"encoding/json"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"after/internal/dataset"
	"after/internal/metrics"
	"after/internal/obs"
	"after/internal/occlusion"
)

// enabled is quality's own gate; effective recording also requires the obs
// gate (see On).
var enabled atomic.Bool

// On reports whether quality recording is active: both the quality gate and
// the obs gate must be open. Hooks call this before doing any work, so the
// disabled path is two atomic loads.
func On() bool { return enabled.Load() && obs.On() }

// SetEnabled flips the quality gate and returns its previous state. Note
// that recording additionally requires obs to be enabled.
func SetEnabled(on bool) bool { return enabled.Swap(on) }

// Config parameterizes the drift detectors and the collector.
type Config struct {
	// Detector parameterizes every drift detector the collector creates.
	Detector DetectorConfig
	// MaxAlerts bounds the retained alert list (oldest kept; the count keeps
	// climbing so saturation is visible).
	MaxAlerts int
	// IgnoreRecs lists recommender names the collector skips entirely. The
	// model-selection grid evaluates throwaway candidates under the name
	// "cand" (see exp.TrainPOSHGNN); monitoring those would pay the oracle
	// on every validation pass and pollute the report with non-methods.
	IgnoreRecs []string
}

// DefaultConfig returns the tuned defaults.
func DefaultConfig() Config {
	return Config{
		Detector:   DefaultDetectorConfig(),
		MaxAlerts:  256,
		IgnoreRecs: []string{"cand"},
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.MaxAlerts <= 0 {
		c.MaxAlerts = d.MaxAlerts
	}
	if c.IgnoreRecs == nil {
		c.IgnoreRecs = d.IgnoreRecs
	}
	c.Detector = c.Detector.withDefaults()
	return c
}

// seriesNames are the three monitored streams per (recommender, target).
const (
	seriesUtility = "utility"
	seriesRegret  = "regret"
	seriesChurn   = "churn"
)

// detectorKey builds the per-(series, target) detector map key. Detectors are
// scoped to one target's episodes on purpose: per-step utility scales differ
// wildly between scenes (a popular target in a dense corner vs a loner), so a
// baseline estimated on one target would flag every other target as drift.
// Keyed per target, the series a detector sees is the concatenation of that
// target's episodes in evaluation order — in the chaos sweep that is the
// clean episode followed by progressively faultier ones, which is precisely
// the drift the monitors exist to catch. Whole episodes are fed atomically
// under the collector lock, so parallel evaluation cannot interleave two
// targets' steps into one series.
func detectorKey(series string, target int) string {
	return series + "/t" + strconv.Itoa(target)
}

// minEpisodeWarmup floors the episode-sized detector warmup so a degenerate
// first episode (a couple of steps) cannot freeze a baseline off two samples.
const minEpisodeWarmup = 4

// episodeSums is one recorded episode's contribution to its recommender's
// telemetry.
type episodeSums struct {
	target int
	steps  int

	// Attribution components (weighted, summed over the episode).
	pref, social, gate, total float64
	gatedUsers                int

	// Regret accumulation, over every step.
	regretTotal float64
	regretMax   float64
	oracleTotal float64
	actualTotal float64

	// Churn accumulation (over steps t ≥ 1).
	churnSteps int
	churnSum   float64
	churnMax   float64

	alerts []Alert
}

// recState accumulates one recommender's quality telemetry.
type recState struct {
	// episodes holds every recorded episode in canonical order — by target,
	// then by arrival within a target — and totals folds them in that order,
	// so floating-point sums and the retained alert list do not depend on
	// the order in which parallel workers finished their episodes.
	episodes  []episodeSums
	detectors map[string]*Detector
}

// record inserts ep at its canonical position.
func (st *recState) record(ep episodeSums) {
	i := sort.Search(len(st.episodes), func(i int) bool { return st.episodes[i].target > ep.target })
	st.episodes = append(st.episodes, episodeSums{})
	copy(st.episodes[i+1:], st.episodes[i:])
	st.episodes[i] = ep
}

// totals folds the recorded episodes in canonical order, retaining at most
// maxAlerts alerts (the first ones in that order).
func (st *recState) totals(maxAlerts int) episodeSums {
	var sum episodeSums
	for _, ep := range st.episodes {
		sum.steps += ep.steps
		sum.pref += ep.pref
		sum.social += ep.social
		sum.gate += ep.gate
		sum.total += ep.total
		sum.gatedUsers += ep.gatedUsers
		sum.regretTotal += ep.regretTotal
		if ep.regretMax > sum.regretMax {
			sum.regretMax = ep.regretMax
		}
		sum.oracleTotal += ep.oracleTotal
		sum.actualTotal += ep.actualTotal
		sum.churnSteps += ep.churnSteps
		sum.churnSum += ep.churnSum
		if ep.churnMax > sum.churnMax {
			sum.churnMax = ep.churnMax
		}
		if room := maxAlerts - len(sum.alerts); room > 0 {
			sum.alerts = append(sum.alerts, ep.alerts[:min(room, len(ep.alerts))]...)
		}
	}
	return sum
}

// Collector aggregates quality telemetry across episodes and recommenders.
// All methods are safe for concurrent use; episodes evaluated in parallel
// fold in under one mutex (the expensive oracle work happens outside it).
type Collector struct {
	mu          sync.Mutex
	cfg         Config
	recs        map[string]*recState
	alertsTotal int
}

// NewCollector builds a collector; zero-valued config fields fall back to
// the defaults.
func NewCollector(cfg Config) *Collector {
	return &Collector{cfg: cfg.withDefaults(), recs: map[string]*recState{}}
}

// def is the process-wide collector the sim/resilience hooks feed and
// cmd/aftersim snapshots.
var def = NewCollector(Config{})

// Default returns the process-wide collector.
func Default() *Collector { return def }

// Reset drops all accumulated state (between experiments, like the obs
// registry) while keeping the configuration.
func (c *Collector) Reset() {
	c.mu.Lock()
	c.recs = map[string]*recState{}
	c.alertsTotal = 0
	c.mu.Unlock()
}

// Obs handles, cached package-level like every instrumented package does.
var (
	obsEpisodes = obs.Default().Counter("quality.episodes")
	obsAlerts   = obs.Default().Counter("quality.alerts")
)

// RecordEpisode folds one finished episode into the collector: utility
// attribution, per-step oracle regret, churn, and a detector feed for each
// series. rendered is the full rendering trace scored against dog; the call
// is pure observation (no RNG, no mutation of its inputs). The expensive
// computation happens before the collector lock is taken.
func (c *Collector) RecordEpisode(rec string, room *dataset.Room, dog *occlusion.DOG, rendered [][]bool, beta float64) {
	cfg := c.config()
	for _, skip := range cfg.IgnoreRecs {
		if rec == skip {
			return
		}
	}
	att, err := metrics.Attribute(room, dog, rendered, beta)
	if err != nil {
		return // malformed trace; the scorer already surfaced the real error
	}
	actual := make([]float64, len(att.Steps))
	for t, s := range att.Steps {
		actual[t] = s.Total
	}
	regret, oracle := regretSeries(room, dog, rendered, actual, beta)
	churn := metrics.ChurnSeries(rendered)

	ep := episodeSums{
		target: dog.Target, steps: len(att.Steps),
		pref: att.Pref, social: att.Social, gate: att.Gate, total: att.Total,
		gatedUsers: att.GatedUsers,
	}
	reg := obs.Default()
	utilHist := reg.Histogram(obs.Label("quality.step_utility", "rec", rec))
	regretHist := reg.Histogram(obs.Label("quality.regret", "rec", rec))
	churnHist := reg.Histogram(obs.Label("quality.churn", "rec", rec))
	for t := range att.Steps {
		utilHist.ObserveNs(microUnits(actual[t]))
		ep.regretTotal += regret[t]
		if regret[t] > ep.regretMax {
			ep.regretMax = regret[t]
		}
		ep.oracleTotal += oracle[t]
		ep.actualTotal += actual[t]
		regretHist.ObserveNs(microUnits(regret[t]))
		if t >= 1 {
			ep.churnSteps++
			ep.churnSum += churn[t]
			if churn[t] > ep.churnMax {
				ep.churnMax = churn[t]
			}
			churnHist.ObserveNs(microUnits(churn[t]))
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.recs[rec]
	if st == nil {
		st = &recState{detectors: map[string]*Detector{}}
		c.recs[rec] = st
	}
	obsEpisodes.Inc()

	// Detector feeds: utility and regret over every step, churn over t ≥ 1.
	target := dog.Target
	c.feedLocked(st, &ep, rec, seriesUtility, target, actual)
	c.feedLocked(st, &ep, rec, seriesRegret, target, regret)
	if len(churn) > 1 {
		c.feedLocked(st, &ep, rec, seriesChurn, target, churn[1:])
	}
	st.record(ep)

	// Attribution gauges expose the running totals live (/metrics scrapes
	// mid-run see the decomposition converge).
	sum := st.totals(0)
	reg.Gauge(obs.Label("quality.attr_pref", "rec", rec)).Set(sum.pref)
	reg.Gauge(obs.Label("quality.attr_social", "rec", rec)).Set(sum.social)
	reg.Gauge(obs.Label("quality.attr_gate", "rec", rec)).Set(sum.gate)
	if sum.oracleTotal > 0 {
		reg.Gauge(obs.Label("quality.regret_rate", "rec", rec)).Set(sum.regretTotal / sum.oracleTotal)
	}
}

// feedLocked streams one series into its per-(series, target) detector,
// creating it on first sight and booking any alerts into ep.
//
// The detector's warmup is sized to the first episode fed, not the static
// default: per-step utility is nonstationary WITHIN an episode (social
// presence needs prior visibility, so early steps score low and the series
// ramps up), and a warmup that freezes the baseline mid-ramp would flag the
// rest of the same clean episode as upward drift. Spanning exactly one full
// episode puts the whole ramp — its mean and its variance — into the
// baseline, so a single-episode evaluation can never alarm and drift is only
// ever declared episode-over-episode, which is the comparison the chaos
// sweep's clean-reference-then-faulty structure is built for.
func (c *Collector) feedLocked(st *recState, ep *episodeSums, rec, series string, target int, xs []float64) {
	if len(xs) == 0 {
		return
	}
	key := detectorKey(series, target)
	d := st.detectors[key]
	if d == nil {
		cfg := c.cfg.Detector
		cfg.Warmup = len(xs)
		if cfg.Warmup < minEpisodeWarmup {
			cfg.Warmup = minEpisodeWarmup
		}
		d = NewDetector(series+"/"+rec+"/t"+strconv.Itoa(target), cfg)
		st.detectors[key] = d
	}
	for _, x := range xs {
		for _, a := range d.Feed(x) {
			c.alertsTotal++
			obsAlerts.Inc()
			obs.Default().Counter(obs.Label("quality.alerts_series", "series", a.Series)).Inc()
			// An instant span drops the alert into the trace timeline: the
			// crossing shows up between the step spans that caused it.
			obs.Begin("alert." + a.Series).End()
			if len(ep.alerts) < c.cfg.MaxAlerts {
				ep.alerts = append(ep.alerts, a)
			}
		}
	}
}

func (c *Collector) config() Config {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cfg
}

// microUnits converts a dimensionless quality quantity (utility, regret,
// churn) into the integer micro-units the obs histogram stores: 1.0 → 1e6.
// Histograms are nanosecond-flavoured by API, but the bucket layout is just
// log-spaced integers; micro-units keep three significant digits for values
// down to 1e-3.
func microUnits(v float64) int64 {
	if v <= 0 {
		return 0
	}
	return int64(v*1e6 + 0.5)
}

// AttributionReport is the episode-summed utility decomposition.
type AttributionReport struct {
	Pref       float64 `json:"pref"`
	Social     float64 `json:"social"`
	Gate       float64 `json:"gate"`
	Total      float64 `json:"total"`
	GatedUsers int     `json:"gated_users"`
}

// RegretReport summarizes the oracle-regret monitor for one recommender.
type RegretReport struct {
	Steps       int     `json:"steps"`
	Total       float64 `json:"total"`
	Mean        float64 `json:"mean"`
	Max         float64 `json:"max"`
	OracleTotal float64 `json:"oracle_total"`
	ActualTotal float64 `json:"actual_total"`
	// Rate is Total/OracleTotal — the fraction of achievable utility left on
	// the table (0 = optimal every step).
	Rate float64 `json:"rate"`
}

// ChurnReport summarizes render-set turnover.
type ChurnReport struct {
	Steps int     `json:"steps"`
	Mean  float64 `json:"mean"`
	Max   float64 `json:"max"`
}

// RecReport is one recommender's quality rollup in a Snapshot.
type RecReport struct {
	Episodes    int               `json:"episodes"`
	Steps       int               `json:"steps"`
	Attribution AttributionReport `json:"attribution"`
	Regret      RegretReport      `json:"regret"`
	Churn       ChurnReport       `json:"churn"`
	Detectors   []DetectorState   `json:"detectors"`
	Alerts      []Alert           `json:"alerts,omitempty"`
}

// Snapshot is the QUALITY_<exp>.json schema and the /quality endpoint body.
type Snapshot struct {
	Timestamp    string               `json:"timestamp"`
	Recommenders map[string]RecReport `json:"recommenders"`
	// AlertsTotal counts every alert ever fired (retained lists are bounded
	// by MaxAlerts per recommender).
	AlertsTotal int `json:"alerts_total"`
}

// Snapshot captures the collector's current state.
func (c *Collector) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Snapshot{
		Timestamp:    time.Now().UTC().Format(time.RFC3339),
		Recommenders: make(map[string]RecReport, len(c.recs)),
		AlertsTotal:  c.alertsTotal,
	}
	for name, rs := range c.recs {
		st := rs.totals(c.cfg.MaxAlerts)
		rr := RecReport{
			Episodes: len(rs.episodes),
			Steps:    st.steps,
			Attribution: AttributionReport{
				Pref: st.pref, Social: st.social, Gate: st.gate,
				Total: st.total, GatedUsers: st.gatedUsers,
			},
			Churn:  ChurnReport{Steps: st.churnSteps, Max: st.churnMax},
			Alerts: st.alerts,
		}
		if st.churnSteps > 0 {
			rr.Churn.Mean = st.churnSum / float64(st.churnSteps)
		}
		rr.Regret = RegretReport{
			Steps: st.steps, Total: st.regretTotal, Max: st.regretMax,
			OracleTotal: st.oracleTotal, ActualTotal: st.actualTotal,
		}
		if st.steps > 0 {
			rr.Regret.Mean = st.regretTotal / float64(st.steps)
		}
		if st.oracleTotal > 0 {
			rr.Regret.Rate = st.regretTotal / st.oracleTotal
		}
		// Deterministic detector order for diffable snapshots.
		keys := make([]string, 0, len(rs.detectors))
		for k := range rs.detectors {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			rr.Detectors = append(rr.Detectors, rs.detectors[k].State())
		}
		s.Recommenders[name] = rr
	}
	return s
}

// WriteJSON writes an indented snapshot atomically (temp file + rename),
// the same crash-safety contract OBS snapshots carry.
func (c *Collector) WriteJSON(path string) error {
	data, err := json.MarshalIndent(c.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	return obs.WriteFileAtomic(path, append(data, '\n'))
}

// init mounts the live /quality endpoint on every obs debug server: the
// collector's current snapshot as JSON, refreshed per request.
func init() {
	obs.HandleDebug("/quality", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(Default().Snapshot())
	}))
}
