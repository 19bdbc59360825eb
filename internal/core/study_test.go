package core

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"

	"pushadminer/internal/chaos"
	"pushadminer/internal/crawler"
	"pushadminer/internal/fleet"
	"pushadminer/internal/telemetry"
	"pushadminer/internal/webeco"
)

// runSmallStudy runs a full end-to-end study at test scale, cached
// across tests in this file.
var smallStudy *Study

func getStudy(t *testing.T) *Study {
	t.Helper()
	if smallStudy != nil {
		return smallStudy
	}
	s, err := RunStudy(StudyConfig{
		Eco: webeco.Config{Seed: 2, Scale: 0.006},
	})
	if err != nil {
		t.Fatal(err)
	}
	smallStudy = s
	return s
}

func TestStudyEndToEnd(t *testing.T) {
	s := getStudy(t)
	r := s.Analysis.Report
	if r.TotalCollected == 0 || r.ValidLanding == 0 {
		t.Fatalf("empty study: %+v", r)
	}
	if r.ValidLanding >= r.TotalCollected {
		t.Errorf("valid landings (%d) should be a subset of collected (%d)", r.ValidLanding, r.TotalCollected)
	}
	if r.Clusters == 0 || r.AdCampaignClusters == 0 {
		t.Fatalf("no campaigns discovered: %+v", r)
	}
	if r.TotalAds == 0 {
		t.Fatal("no WPN ads identified")
	}
	frac := r.MaliciousAdFraction()
	if frac < 0.25 || frac > 0.85 {
		t.Errorf("malicious ad fraction = %.2f, want in paper-like band (paper: 0.51)", frac)
	}
	if r.MaliciousCampaigns == 0 {
		t.Error("no malicious campaigns")
	}
	if r.MetaClusters == 0 || r.MetaClusters >= r.Clusters {
		t.Errorf("meta clusters = %d (clusters %d); meta-clustering should consolidate", r.MetaClusters, r.Clusters)
	}
	t.Logf("report: %+v", r)
}

func TestStudyMobileTailoring(t *testing.T) {
	s := getStudy(t)
	if s.Mobile == nil || len(s.Mobile.Records) == 0 {
		t.Fatal("no mobile records")
	}
	mobileOnly := 0
	for _, r := range s.Mobile.Records {
		if strings.Contains(r.Title, "Missed call") || strings.Contains(r.Title, "package") ||
			strings.Contains(r.Title, "WhatsApp") || strings.Contains(r.Title, "Voicemail") {
			mobileOnly++
		}
	}
	if mobileOnly == 0 {
		t.Error("no mobile-tailored messages in mobile crawl")
	}
}

func TestStudyPerNetworkDistribution(t *testing.T) {
	s := getStudy(t)
	if len(s.PerNetwork) < 2 {
		t.Fatalf("per-network stats too small: %+v", s.PerNetwork)
	}
	abused := 0
	for _, ns := range s.PerNetwork {
		if ns.MaliciousAds > ns.Ads {
			t.Errorf("network %s: malicious %d > ads %d", ns.Network, ns.MaliciousAds, ns.Ads)
		}
		if ns.MaliciousAds > 0 {
			abused++
		}
	}
	if abused < 2 {
		t.Errorf("only %d networks carry malicious ads; Figure 6 shows widespread abuse", abused)
	}
	// Sorted descending by ad count.
	for i := 1; i < len(s.PerNetwork); i++ {
		if s.PerNetwork[i].Ads > s.PerNetwork[i-1].Ads {
			t.Error("per-network stats not sorted")
		}
	}
}

func TestStudyAdBlockers(t *testing.T) {
	s := getStudy(t)
	stats := s.EvaluateAdBlockers()
	if len(stats) != 3 {
		t.Fatalf("ad blocker stats = %d entries", len(stats))
	}
	easylist, ext1 := stats[0], stats[1]
	if easylist.Total == 0 {
		t.Fatal("no SW requests evaluated")
	}
	// Extensions cannot see SW traffic: zero blocked.
	if ext1.Blocked != 0 {
		t.Errorf("extension blocked %d SW requests; should be blind", ext1.Blocked)
	}
	// EasyList direct matching catches only a small fraction.
	// The paper reports <2%; at this tiny test scale the per-network
	// minimum site counts inflate the small networks' share, so allow a
	// wider band (the default-scale benches verify the <2% shape).
	frac := float64(easylist.Blocked) / float64(easylist.Total)
	if frac > 0.15 {
		t.Errorf("EasyList matched %.1f%% of SW requests, want small (<15%%)", 100*frac)
	}
	t.Logf("easylist: %+v", easylist.Stats)
}

func TestStudyCostEstimate(t *testing.T) {
	s := getStudy(t)
	est := s.EstimateAdvertiserCost()
	if est.Domains == 0 {
		t.Fatal("no benign ad domains priced")
	}
	if est.MaxCostUSD <= 0 || est.MaxCostUSD > 10 {
		t.Errorf("max cost = $%.2f, want small positive (paper: $1.12)", est.MaxCostUSD)
	}
	if est.AvgCostUSD > est.MaxCostUSD {
		t.Error("avg cost exceeds max cost")
	}
}

func TestStudyEvaluationAgainstTruth(t *testing.T) {
	s := getStudy(t)
	ev := s.Evaluate()
	if ev.TruthMaliciousAds == 0 {
		t.Fatal("ground truth has no malicious records")
	}
	if p := ev.Precision(); p < 0.9 {
		t.Errorf("malicious labeling precision = %.2f, want >= 0.9", p)
	}
	if r := ev.Recall(); r < 0.5 {
		t.Errorf("malicious labeling recall = %.2f, want >= 0.5", r)
	}
	t.Logf("precision=%.3f recall=%.3f (TP=%d FP=%d FN=%d)",
		ev.Precision(), ev.Recall(), ev.TruePositives, ev.FalsePositives, ev.FalseNegatives)
}

func TestNetworkOfSW(t *testing.T) {
	s := getStudy(t)
	an := s.Eco.Networks()[0]
	if got := s.NetworkOfSW(an.SWURL()); got != an.Spec.Name {
		t.Errorf("NetworkOfSW(%s) = %q, want %q", an.SWURL(), got, an.Spec.Name)
	}
	if got := s.NetworkOfSW("https://mysite.org/sw.js"); got != "self-hosted" {
		t.Errorf("self-hosted SW attributed to %q", got)
	}
}

func TestDescribeCluster(t *testing.T) {
	s := getStudy(t)
	out := s.DescribeCluster(0)
	if !strings.Contains(out, "cluster 0:") {
		t.Errorf("DescribeCluster output: %q", out)
	}
}

// TestStudyLedger runs the same chaos study twice, each with one
// ledger, and pins the one-record-per-run contract: the two files are
// byte-identical and hold the desktop crawl's events, then the mobile
// crawl's, then the mining events; each crawl starts once and its merge
// events account for exactly its records.
func TestStudyLedger(t *testing.T) {
	prof, err := chaos.ParseProfile("acceptance")
	if err != nil {
		t.Fatal(err)
	}
	run := func() (*Study, []byte) {
		led := telemetry.NewLedger()
		s, err := RunStudy(StudyConfig{
			Eco:              webeco.Config{Seed: 11, Scale: 0.002, Chaos: prof},
			CollectionWindow: 7 * 24 * time.Hour,
			Ledger:           led,
		})
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
		return s, ledgerBytes(t, led)
	}
	s, a := run()
	if _, b := run(); !bytes.Equal(a, b) {
		t.Errorf("two runs at a fixed seed wrote different ledgers: %s", ledgerDiff(a, b))
	}

	events, err := telemetry.ReadLedger(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	order := map[string]int{"desktop": 0, "mobile": 1, "": 2} // "" = mining
	counts := map[string]map[string]int{"desktop": {}, "mobile": {}, "": {}}
	merged := map[string]int{}
	last := 0
	for _, ev := range events {
		dev := ev.Attrs["device"]
		pos, ok := order[dev]
		if !ok || pos < last {
			t.Fatalf("event %d (%s, device %q) breaks the desktop, mobile, mining order", ev.Seq, ev.Kind, dev)
		}
		last = pos
		if ev.Time.IsZero() != (dev == "") {
			t.Errorf("event %d (%s): crawl events carry the sim time, mining events none", ev.Seq, ev.Kind)
		}
		counts[dev][ev.Kind]++
		if ev.Kind == fleet.EvMerge {
			n, _ := strconv.Atoi(ev.Attrs["records"])
			merged[dev] += n
		}
	}
	for dev, res := range map[string]*crawler.Result{"desktop": s.Desktop, "mobile": s.Mobile} {
		c := counts[dev]
		if c[fleet.EvShardStarted] != 1 {
			t.Errorf("%s: %d shard_started events, want 1", dev, c[fleet.EvShardStarted])
		}
		if len(res.Records) == 0 || merged[dev] != len(res.Records) {
			t.Errorf("%s: merge events account for %d records, the crawl collected %d", dev, merged[dev], len(res.Records))
		}
		t.Logf("%s: %v", dev, c)
	}
	if c := counts[""]; c[EvStageBegin] == 0 || c[EvCutChosen] != 1 {
		t.Errorf("mining events = %v, want stage brackets and one cut_chosen", c)
	}
}
