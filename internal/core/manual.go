package core

import (
	"strings"

	"pushadminer/internal/crawler"
	"pushadminer/internal/simhash"
)

// Analyst simulates the paper's manual-verification process (§5.4): a
// human inspecting a WPN message and its landing page and judging
// maliciousness from content — too-good-to-be-true rewards, tech-support
// framing, credential harvesting, fee-advance scams. It deliberately
// works only from the observed content, never from ground truth, so the
// pipeline's evaluation against the ecosystem oracle stays honest.
type Analyst struct {
	// strong markers: any one condemns the page.
	strong []string
	// weak markers: two or more condemn it.
	weak []string
}

// NewAnalyst returns an analyst with the default marker lists.
func NewAnalyst() *Analyst {
	return &Analyst{
		strong: []string{
			"call the toll free", "your computer has been blocked",
			"card for verification", "verify your account",
			"processing fee", "wire your verification deposit",
			"pay small fee card details", "premium line",
			"sign in with your email and password",
			"enter your shipping details and card",
			"sign in to view your messages",
			"verify your age",
		},
		weak: []string{
			"winner", "claim", "survey", "prize", "reward", "lucky",
			"suspended", "unusual activity", "infected", "viruses",
			"cleaner", "payout", "lottery", "voicemail", "redelivery",
			"customs", "verify", "leaked", "blocked", "missed call",
			"nearby singles", "premium", "charges may apply",
		},
	}
}

// JudgePage reports whether page text reads as malicious.
func (a *Analyst) JudgePage(title, content string) bool {
	text := strings.ToLower(title + " " + content)
	for _, m := range a.strong {
		if strings.Contains(text, m) {
			return true
		}
	}
	hits := 0
	for _, m := range a.weak {
		if strings.Contains(text, m) {
			hits++
			if hits >= 2 {
				return true
			}
		}
	}
	return false
}

// JudgeRecord inspects one WPN record: its message text and, when
// available, its landing page.
func (a *Analyst) JudgeRecord(r *crawler.WPNRecord) bool {
	if a.JudgePage(r.LandingTitle, r.LandingContent) {
		return true
	}
	// Fall back to the message itself (factor 3 of §5.4).
	return a.JudgePage(r.Title, r.Body)
}

// VerifyKnownMalicious re-checks every blocklist-flagged record the way
// the authors manually reviewed all 1,388 VT/GSB hits (§6.3.2),
// clearing the label when the content does not support it (the paper's
// conservative stance on the 44 unconfirmable URLs). It returns how many
// labels were cleared.
func (a *Analyst) VerifyKnownMalicious(fs *FeatureSet, labels []*RecordLabels) int {
	cleared := 0
	for i, l := range labels {
		if !l.KnownMalicious {
			continue
		}
		if !a.JudgeRecord(fs.Records[i]) {
			l.KnownMalicious = false
			l.FlaggedBy = nil
			cleared++
		}
	}
	return cleared
}

// VisualNearBits is the SimHash radius within which two landing pages
// are judged "visually similar" (§5.4's factor 1 — the same scam kit on
// a different domain).
const VisualNearBits = 8

// ConfirmPropagatedAndSuspicious runs the manual pass over records
// labeled by propagation or as suspicious, setting ConfirmedMalicious
// where the content supports it — by scam markers (factors 2–3) or by
// visual similarity of the landing page to an already-confirmed
// malicious page (factor 1). It returns (confirmedPropagated,
// confirmedSuspicious).
func (a *Analyst) ConfirmPropagatedAndSuspicious(fs *FeatureSet, labels []*RecordLabels) (int, int) {
	// Build the "known malicious look" index from blocklist-confirmed
	// pages, as the authors compared screenshots against GSB/VT hits.
	var knownLook simhash.Index
	for i, l := range labels {
		if l.KnownMalicious {
			if h, ok := recordSimHash(fs.Records[i]); ok {
				knownLook.Add(h)
			}
		}
	}

	prop, susp := 0, 0
	confirm := func(i int, l *RecordLabels) {
		l.ConfirmedMalicious = true
		if l.PropagatedMalicious {
			prop++
		} else {
			susp++
		}
		if h, ok := recordSimHash(fs.Records[i]); ok {
			knownLook.Add(h)
		}
	}

	// First pass: marker-based judgement (factors 2–3).
	var pending []int
	for i, l := range labels {
		if !l.PropagatedMalicious && !l.Suspicious {
			continue
		}
		if a.JudgeRecord(fs.Records[i]) {
			confirm(i, l)
		} else {
			pending = append(pending, i)
		}
	}
	// Second pass: visual similarity to confirmed pages (factor 1).
	// Iterate to a fixpoint: each confirmation can make another page's
	// look "known".
	for changed := true; changed; {
		changed = false
		remaining := pending[:0]
		for _, i := range pending {
			l := labels[i]
			h, ok := recordSimHash(fs.Records[i])
			if ok && knownLook.AnyNear(h, VisualNearBits) {
				confirm(i, l)
				changed = true
			} else {
				remaining = append(remaining, i)
			}
		}
		pending = remaining
	}
	return prop, susp
}

// recordSimHash parses the record's landing fingerprint. The strict
// parse matters here because the field round-trips through export
// files: simhash.Parse would happily read a truncated
// or corrupt string (any valid hex prefix) into a garbage fingerprint
// and poison the "known look" index. ok is false for malformed input
// and for the all-zero hash — an empty landing page has no look worth
// indexing or matching.
func recordSimHash(r *crawler.WPNRecord) (simhash.Hash, bool) {
	h, ok := simhash.ParseStrict(r.LandingSimHash)
	return h, ok && h != 0
}
