package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"net/url"
	"time"

	"pushadminer/internal/chaos"
	"pushadminer/internal/core"
	"pushadminer/internal/crawler"
	"pushadminer/internal/webeco"
)

// sizes fixes every workload's input size; fullSizes is the benchmark,
// smokeSizes the quick run of TestSmoke.
type sizes struct {
	studyScale  float64 // study ecosystem scale
	faultsScale float64 // study-faults ecosystem scale
	batchN      int     // mine-batch corpus size
	streamN     int     // mine-stream arrivals per session
	streamRate  float64 // mine-stream arrivals per second (traced path)
	reclusterN  int     // mine-stream arrivals between Reclusters
	inputs      int     // inputs a run derives from its seed
	setupShare  float64 // share of a run's time kept on repeating the set-up
}

var (
	fullSizes  = sizes{studyScale: 0.05, faultsScale: 0.02, batchN: 15000, streamN: 10000, streamRate: 2000, reclusterN: 500, inputs: 4, setupShare: 0.05}
	smokeSizes = sizes{studyScale: 0.01, faultsScale: 0.004, batchN: 500, streamN: 500, streamRate: 5000, reclusterN: 100, inputs: 1}
)

// inputSeed derives a run's k-th input seed from its seed. Runs at
// different seeds never share an input.
func inputSeed(seed int64, k int) int64 { return seed*1000 + int64(k) }

// state is what a workload's set-up hands to its repetitions.
type state struct {
	study   core.StudyConfig
	records []*crawler.WPNRecord
	truth   []string // generator campaign (landing host) per record
	fs      *core.FeatureSet
}

// outcome is one repetition's measurements and output.
type outcome struct {
	// wall is the wall time spent inside the program's calls: the whole
	// repetition, except on the stream, where it is the time inside Add
	// and the inline Reclusters (the open loop's idle waits excluded).
	wall time.Duration
	// digest identifies the repetition's output; every repetition of an
	// input, traced or not, must produce the same one.
	digest string
	// score compares the output with the generator's ground truth.
	score score
	// attempted and failed count the operations behind success_share.
	attempted, failed int
	// layers holds per-layer metrics (traced repetitions only).
	layers map[string]float64
}

// workload is one named benchmark input.
type workload struct {
	name, why string
	setup     func(z sizes, seed int64) (*state, error)
	// run performs one repetition. p is nil for the timed repetitions;
	// otherwise run takes the traced code path, with spans and the
	// registry recorded unless p is off (see probe).
	run func(z sizes, st *state, p *probe) (outcome, error)
	// tracedPath marks a workload whose traced code path differs from
	// the timed one, so tracing overhead is measured against an untraced
	// pass of the traced path.
	tracedPath bool
	// verify checks the first input's output against a reference
	// computed outside the timing (nil: digests alone are checked).
	verify func(st *state, o outcome) error
}

var workloads = []*workload{
	{
		name: "study",
		why:  "the paper's whole measurement: seed discovery, desktop and mobile crawls over 1 ms WAN latency, exact mining, labels, tables",
		setup: func(z sizes, seed int64) (*state, error) {
			return studySetup(studyConfig(seed, z.studyScale, false))
		},
		run:        func(z sizes, st *state, p *probe) (outcome, error) { return runStudy(st.study, p) },
		tracedPath: true,
	},
	{
		name: "study-faults",
		why:  "a desktop study under resets, 503s and a 24 h push outage, so the crawler's retry, breaker and outage paths do the work",
		setup: func(z sizes, seed int64) (*state, error) {
			return studySetup(studyConfig(seed, z.faultsScale, true))
		},
		run:        func(z sizes, st *state, p *probe) (outcome, error) { return runStudy(st.study, p) },
		tracedPath: true,
	},
	{
		name: "mine-batch",
		why:  "featurize and blocked-cluster a synthetic campaign corpus, bypassing every crawl layer",
		setup: func(z sizes, seed int64) (*state, error) {
			recs := core.SynthWPNRecords(seed, z.batchN)
			return &state{records: recs, truth: landingHosts(recs)}, nil
		},
		run: runBatch,
	},
	{
		name: "mine-stream",
		why:  "the online classifier: a stream of Add arrivals with inline periodic Recluster, the blocked code used for writes",
		setup: func(z sizes, seed int64) (*state, error) {
			recs := core.SynthWPNRecords(seed, z.streamN)
			fs, err := core.ExtractFeatures(recs, core.FeatureOptions{})
			if err != nil {
				return nil, err
			}
			return &state{records: recs, truth: landingHosts(recs), fs: fs}, nil
		},
		run:        runStream,
		tracedPath: true,
		verify:     verifyStream,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// studyConfig is the study workloads' input: a 7-day collection with
// 1-hour tick coalescing and a fixed 1 ms real-time delay on every
// request of the simulated network; faults adds the acceptance fault
// mix and drops the mobile crawl.
func studyConfig(seed int64, scale float64, faults bool) core.StudyConfig {
	spec := "latency=1,latmin=1ms,latmax=1ms"
	if faults {
		spec = "acceptance," + spec
	}
	prof, err := chaos.ParseProfile(spec)
	if err != nil {
		panic(err) // the spec is a constant
	}
	return core.StudyConfig{
		Eco:              webeco.Config{Seed: seed, Scale: scale, Chaos: prof},
		CollectionWindow: 7 * 24 * time.Hour,
		BatchWindow:      time.Hour,
		SkipMobile:       faults,
	}
}

// studySetup times the study's set-up cost, generating and serving the
// simulated web, which RunStudy pays again inside every repetition.
func studySetup(cfg core.StudyConfig) (*state, error) {
	eco, err := webeco.New(cfg.Eco)
	if err != nil {
		return nil, err
	}
	return &state{study: cfg}, eco.Close()
}

// landingHosts is the synthetic corpus's ground truth: campaign
// messages share their campaign's landing host, noise messages each
// have their own.
func landingHosts(recs []*crawler.WPNRecord) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		if u, err := url.Parse(r.LandingURL); err == nil {
			out[i] = u.Hostname()
		}
	}
	return out
}

// clusterDigest identifies a clustering by its labels, cut height and
// silhouette.
func clusterDigest(cr *core.ClusterResult) string {
	h := sha256.New()
	var b [8]byte
	for _, l := range cr.Labels {
		binary.LittleEndian.PutUint64(b[:], uint64(int64(l)))
		h.Write(b[:])
	}
	fmt.Fprintf(h, "|%x|%x", math.Float64bits(cr.CutHeight), math.Float64bits(cr.Silhouette))
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// runBatch featurizes the corpus and clusters it on the blocked path.
func runBatch(z sizes, st *state, p *probe) (outcome, error) {
	opts := core.ClusterOptions{Blocked: true}
	if p != nil {
		opts.Metrics = p.reg
	}
	start := time.Now()
	sp := p.start("core.featurize")
	fs, err := core.ExtractFeatures(st.records, core.FeatureOptions{})
	p.end(sp)
	if err != nil {
		return outcome{}, err
	}
	sp = p.start("core.cluster")
	cr := core.ClusterWPNs(fs, opts)
	p.end(sp)
	wall := time.Since(start)
	o := outcome{
		wall:      wall,
		digest:    clusterDigest(cr),
		score:     pairScore(cr.Labels, st.truth),
		attempted: len(st.records),
	}
	if p.on() {
		o.layers = p.miningLayers(len(st.records))
		o.layers["core.featurize_s"] = p.total("core.featurize").Seconds()
	}
	return o, nil
}
