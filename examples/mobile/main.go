// Mobile reproduces the paper's §4.2/§6.1.3 mobile findings: WPN ads
// pushed to Android devices are tailored to mobile users (fake missed
// calls, fake parcel notices, spoofed chat notifications), and the
// malicious mobile campaigns fingerprint emulators — they only serve
// their payloads to what looks like a physical device, which is why the
// authors crawled with a real Nexus 5.
package main

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"strings"
	"time"

	"pushadminer"
	"pushadminer/internal/browser"
	"pushadminer/internal/crawler"
	"pushadminer/internal/fleet"
)

func main() {
	eco, err := pushadminer.NewEcosystem(pushadminer.EcosystemConfig{Seed: 13, Scale: 0.01})
	if err != nil {
		log.Fatal(err)
	}
	defer eco.Close()
	seeds := eco.SeedURLs()

	crawl := func(name string, physical bool) []*pushadminer.WPNRecord {
		res, _, err := fleet.Run(context.Background(), fleet.Config{Crawl: crawler.Config{
			Clock:            eco.Clock,
			NewClient:        func() *http.Client { return eco.Net.ClientNoRedirect() },
			Driver:           eco,
			Pending:          eco.Push,
			Device:           browser.Mobile,
			RealDevice:       physical,
			CollectionWindow: 7 * 24 * time.Hour,
		}}, seeds)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("%s crawl: %d WPNs from %d containers", name, len(res.Records), res.Containers)
		return res.Records
	}

	isMobileBait := func(title string) bool {
		for _, marker := range []string{"Missed call", "Voicemail", "package", "delivery fee", "WhatsApp", "friend request"} {
			if strings.Contains(title, marker) {
				return true
			}
		}
		return false
	}
	countBait := func(records []*pushadminer.WPNRecord) (int, []string) {
		n := 0
		var samples []string
		for _, r := range records {
			if isMobileBait(r.Title) {
				n++
				if len(samples) < 5 {
					samples = append(samples, r.Title)
				}
			}
		}
		return n, samples
	}

	// Physical device first, then an emulator profile against the same
	// ecosystem (fresh subscriptions, same campaigns).
	physRecords := crawl("physical-device", true)
	emuRecords := crawl("emulator", false)

	physBait, samples := countBait(physRecords)
	emuBait, _ := countBait(emuRecords)

	fmt.Printf("\nMobile-tailored malicious WPNs:\n")
	fmt.Printf("  physical device: %d of %d WPNs\n", physBait, len(physRecords))
	fmt.Printf("  emulator:        %d of %d WPNs\n", emuBait, len(emuRecords))
	fmt.Println("\nExamples seen only on the physical device:")
	for _, s := range samples {
		fmt.Printf("  %q\n", s)
	}
	fmt.Println("\nAs in the paper, the emulator profile is starved of the real-device-only campaigns.")
}
