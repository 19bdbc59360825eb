// Forensics demonstrates the JSgraph-lineage forensic pipeline (§4.1):
// the instrumented browser traces every fine-grained event as a span,
// the trace is exported as append-only JSONL, and complete WPN attack
// chains — subscription → push → notification → auto-click → redirect
// chain → landing page — are reconstructed from that file alone, as an
// incident responder would do after the fact.
package main

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"pushadminer"
	"pushadminer/internal/browser"
	"pushadminer/internal/telemetry"
)

func main() {
	eco, err := pushadminer.NewEcosystem(pushadminer.EcosystemConfig{Seed: 21, Scale: 0.004})
	if err != nil {
		log.Fatal(err)
	}
	defer eco.Close()

	// Subscribe one container to an Ad-Maven publisher and collect a
	// few notifications.
	var seed string
	for _, s := range eco.Sites() {
		if s.NPR && s.Network == "Ad-Maven" {
			seed = s.URL
			break
		}
	}
	tracer := telemetry.NewTracer(nil)
	br := browser.New(browser.Config{Clock: eco.Clock, Client: eco.Net.ClientNoRedirect(), Tracer: tracer})
	if _, err := br.Visit(seed); err != nil {
		log.Fatal(err)
	}
	deadline := eco.Clock.Now().Add(7 * 24 * time.Hour)
	clicks := 0
	for eco.Clock.Now().Before(deadline) && clicks < 3 {
		at, ok := eco.NextPushAt()
		if !ok {
			break
		}
		eco.Clock.Advance(at.Sub(eco.Clock.Now()))
		eco.Tick()
		if n, _ := br.PumpPush(""); n > 0 {
			eco.Clock.Advance(5 * time.Second)
			clicks += len(br.ProcessClicks())
		}
	}

	// Export the raw instrumentation stream as a JSONL trace.
	var logBuf bytes.Buffer
	if err := tracer.WriteJSONL(&logBuf); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("== Trace: %d bytes of JSONL, %d spans\n", logBuf.Len(), tracer.Len())
	fmt.Println("   first lines:")
	preview := logBuf.Bytes()
	for i, line := 0, 0; i < len(preview) && line < 3; i++ {
		if preview[i] == '\n' {
			fmt.Printf("   %s\n", preview[:i])
			preview = preview[i+1:]
			i = 0
			line++
		}
	}

	// Reconstruct attack chains from the trace alone.
	spans, err := telemetry.ReadSpans(&logBuf)
	if err != nil {
		log.Fatal(err)
	}
	chains := telemetry.Chains(spans)
	fmt.Printf("\n== Reconstructed %d WPN chains from the log:\n\n", len(chains))
	for i, c := range chains {
		fmt.Printf("chain %d: %q (shown %s)\n", i+1, c.Title, c.ShownAt.Format("15:04:05"))
		fmt.Printf("  origin %s via %s\n", c.Origin, c.SWURL)
		if !c.Clicked {
			fmt.Println("  never clicked")
			continue
		}
		for h, hop := range c.RedirectChain {
			fmt.Printf("  hop %d: %s\n", h+1, hop)
		}
		switch {
		case c.Crashed:
			fmt.Println("  → tab crashed")
		case c.LandingURL != "":
			fmt.Printf("  → landed on %q (%s)\n", c.LandingTitle, c.LandingURL)
		}
		fmt.Println()
	}
}
