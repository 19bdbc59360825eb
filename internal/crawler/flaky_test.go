package crawler_test

import (
	"testing"

	"pushadminer/internal/chaos"
	"pushadminer/internal/fcm"
)

// TestCrawlSurvivesFlakyPushService injects a 33% transient failure rate
// into the push service through the shared chaos layer and requires the
// crawl to still complete and collect: the httpx retry layer in the FCM
// client must absorb the hiccups.
func TestCrawlSurvivesFlakyPushService(t *testing.T) {
	prof := &chaos.Profile{
		Seed:             3,
		Error5xxFraction: 0.33,
		Only:             []string{fcm.DefaultHost},
	}
	eco := newChaosEco(t, 0.002, prof)
	res := crawl(t, eco, nil)
	injected := eco.Chaos().Stats()["http_503"]
	if injected == 0 {
		t.Fatal("failure injection never fired; test is vacuous")
	}
	if len(res.Records) == 0 {
		t.Fatalf("flaky push service killed the crawl (injected %d failures)", injected)
	}
	if res.Degradation.Faults["chaos_http_503"] != injected {
		t.Errorf("degradation reports %d injected 503s, injector counted %d",
			res.Degradation.Faults["chaos_http_503"], injected)
	}
	t.Logf("survived %d injected 503s, collected %d WPNs", injected, len(res.Records))
}
