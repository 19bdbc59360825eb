package blocklist

import (
	"fmt"
	"testing"
	"time"
)

var t0 = time.Date(2019, 9, 1, 0, 0, 0, 0, time.UTC)

func TestBenignURLsNeverFlagged(t *testing.T) {
	s := New(VTDefault())
	for i := 0; i < 100; i++ {
		u := fmt.Sprintf("https://benign%d.test/page", i)
		if v := s.Lookup(u, t0.Add(365*24*time.Hour)); v.Malicious {
			t.Fatalf("benign URL %s flagged", u)
		}
	}
}

func TestCoverageRampsOverTime(t *testing.T) {
	s := New(Config{Name: "x", InitialCoverage: 0.05, EventualCoverage: 0.5, MaxLag: 30 * 24 * time.Hour, Seed: 1})
	const n = 2000
	urls := make([]string, n)
	for i := range urls {
		urls[i] = fmt.Sprintf("https://evil%04d.test/lp/offer", i)
		s.MarkMalicious(urls[i], t0)
	}
	count := func(at time.Time) int {
		c := 0
		for _, u := range urls {
			if s.Lookup(u, at).Malicious {
				c++
			}
		}
		return c
	}
	initial := count(t0)
	later := count(t0.Add(31 * 24 * time.Hour))
	if frac := float64(initial) / n; frac < 0.02 || frac > 0.09 {
		t.Errorf("initial detection fraction = %v, want ≈0.05", frac)
	}
	if frac := float64(later) / n; frac < 0.42 || frac > 0.58 {
		t.Errorf("eventual detection fraction = %v, want ≈0.5", frac)
	}
	if later <= initial {
		t.Errorf("detection did not grow: %d -> %d", initial, later)
	}
}

func TestDetectionMonotonic(t *testing.T) {
	s := New(VTDefault())
	u := "https://evil.test/lp"
	s.MarkMalicious(u, t0)
	wasDetected := false
	for d := time.Duration(0); d <= 40*24*time.Hour; d += 24 * time.Hour {
		det := s.Lookup(u, t0.Add(d)).Malicious
		if wasDetected && !det {
			t.Fatalf("detection regressed at +%v", d)
		}
		wasDetected = det
	}
}

func TestLookupDeterministic(t *testing.T) {
	s1, s2 := New(VTDefault()), New(VTDefault())
	at := t0.Add(15 * 24 * time.Hour)
	for i := 0; i < 500; i++ {
		u := fmt.Sprintf("https://evil%d.test/x", i)
		s1.MarkMalicious(u, t0)
		s2.MarkMalicious(u, t0)
		if s1.Lookup(u, at).Malicious != s2.Lookup(u, at).Malicious {
			t.Fatalf("nondeterministic verdict for %s", u)
		}
	}
}

func TestServicesDecorrelated(t *testing.T) {
	vt := New(Config{Name: "vt", InitialCoverage: 0.5, EventualCoverage: 0.5, Seed: 1, MaxLag: time.Hour})
	gsb := New(Config{Name: "gsb", InitialCoverage: 0.5, EventualCoverage: 0.5, Seed: 2, MaxLag: time.Hour})
	agree := 0
	const n = 1000
	for i := 0; i < n; i++ {
		u := fmt.Sprintf("https://evil%d.test/x", i)
		vt.MarkMalicious(u, t0)
		gsb.MarkMalicious(u, t0)
		if vt.Lookup(u, t0).Malicious == gsb.Lookup(u, t0).Malicious {
			agree++
		}
	}
	// Independent 50% coverage → ~50% agreement; identical sampling
	// would give 100%.
	if agree > 650 {
		t.Errorf("services too correlated: %d/%d agreements", agree, n)
	}
}

func TestForce(t *testing.T) {
	s := New(GSBDefault())
	u := "https://definitely-evil.test/lp"
	s.Force(u)
	v := s.Lookup(u, t0)
	if !v.Malicious || v.Engines == 0 {
		t.Errorf("forced URL verdict = %+v", v)
	}
}

func TestMarkMaliciousKeepsEarliest(t *testing.T) {
	s := New(Config{Name: "x", InitialCoverage: 1, EventualCoverage: 1, MaxLag: time.Hour, Seed: 3})
	u := "https://evil.test/a"
	s.MarkMalicious(u, t0.Add(time.Hour))
	s.MarkMalicious(u, t0)
	s.MarkMalicious(u, t0.Add(2*time.Hour)) // must not move forward
	if !s.Lookup(u, t0).Malicious {
		t.Error("URL not detected at its earliest first-seen time")
	}
	if s.NumKnown() != 1 {
		t.Errorf("NumKnown = %d", s.NumKnown())
	}
}

func TestEnginesInRange(t *testing.T) {
	s := New(Config{Name: "x", InitialCoverage: 1, EventualCoverage: 1, MaxLag: time.Hour, Seed: 9})
	for i := 0; i < 200; i++ {
		u := fmt.Sprintf("https://evil%d.test/x", i)
		s.MarkMalicious(u, t0)
		v := s.Lookup(u, t0)
		if !v.Malicious {
			t.Fatalf("full-coverage service missed %s", u)
		}
		if v.Engines < 1 || v.Engines > 4 {
			t.Fatalf("engines = %d", v.Engines)
		}
	}
}

func TestConfigDefensiveDefaults(t *testing.T) {
	s := New(Config{Name: "bad", InitialCoverage: 0.5, EventualCoverage: 0.1}) // eventual < initial
	u := "https://evil.test/x"
	s.MarkMalicious(u, t0)
	// Must not panic and coverage must never decrease over time.
	a := s.Lookup(u, t0).Malicious
	b := s.Lookup(u, t0.Add(100*24*time.Hour)).Malicious
	if a && !b {
		t.Error("coverage decreased over time")
	}
}
