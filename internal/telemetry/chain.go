package telemetry

import (
	"sort"
	"time"
)

// Browser event kinds the chain recorder links into WPN attack chains.
// They mirror internal/browser's EventKind strings (kept as plain
// strings here so telemetry stays a leaf package).
const (
	evVisit               = "visit"
	evSWRegistered        = "sw_registered"
	evPushReceived        = "push_received"
	evNotificationShown   = "notification_shown"
	evNotificationClicked = "notification_clicked"
	evSWRequest           = "sw_request"
	evNavigation          = "navigation"
	evRedirect            = "redirect"
	evLandingPage         = "landing_page"
	evTabCrashed          = "tab_crashed"
)

// ChainRecorder turns one browser's instrumentation event stream into
// parent-linked spans on a shared Tracer, reconstructing the WPN attack
// chain live: seed visit → permission → SW install → push →
// notification → click → redirect hops → landing page.
//
// Every event becomes exactly one span, emitted in event order with the
// event's own fields and simulated-clock time, so the trace is the
// browser's event log: Chains rebuilds attack chains from it alone.
//
// A push parents under the registration with its subscription token (a
// container can hold two subscriptions that share one SW script), and a
// click under the oldest unclicked notification with its title (the
// browser clicks in display order, and one title can be on screen
// twice). A click's consequences are the events up to its landing page
// or crash; a click whose navigation failed ends at the next visit or
// push, which belong to the visit or push chain instead.
//
// A ChainRecorder serves a single browser (one container); the Tracer
// behind it may be shared by many. The nil ChainRecorder ignores
// everything.
type ChainRecorder struct {
	tr        *Tracer
	container string

	visit SpanID              // current top-level visit span
	regs  map[string]SpanID   // subscription token → registration span
	chain SpanID              // most recent push_received span
	click SpanID              // clicked chain collecting consequences
	shown map[string][]SpanID // displayed-but-unclicked, by title, oldest first
}

// NewChainRecorder creates a recorder for one container. Returns nil
// when the tracer is nil, so disabled tracing costs one nil check per
// event.
func NewChainRecorder(tr *Tracer, container string) *ChainRecorder {
	if tr == nil {
		return nil
	}
	return &ChainRecorder{
		tr:        tr,
		container: container,
		regs:      make(map[string]SpanID),
		shown:     make(map[string][]SpanID),
	}
}

// ChainState is a ChainRecorder's linkage state in serializable form:
// the span IDs future events will parent under. It is persisted with
// shard-worker state so a restarted worker's recorders keep linking
// events into the chains the killed worker left open — without it,
// every post-restart event would start a fresh root and the stitched
// trace could never match the uninterrupted kill-free one. The
// IDs are only meaningful against the same tracer the state was
// captured from (the fleet transport owns per-shard tracers across
// restarts); chains adopted onto a different shard's tracer must be
// dropped instead of restored.
type ChainState struct {
	Visit SpanID              `json:"visit,omitempty"`
	Regs  map[string]SpanID   `json:"regs,omitempty"`
	Chain SpanID              `json:"chain,omitempty"`
	Click SpanID              `json:"click,omitempty"`
	Shown map[string][]SpanID `json:"shown,omitempty"`
}

// Export snapshots the recorder's linkage state. Returns nil on a nil
// recorder (tracing disabled).
func (c *ChainRecorder) Export() *ChainState {
	if c == nil {
		return nil
	}
	st := &ChainState{Visit: c.visit, Chain: c.chain, Click: c.click}
	if len(c.regs) > 0 {
		st.Regs = make(map[string]SpanID, len(c.regs))
		for k, v := range c.regs {
			st.Regs[k] = v
		}
	}
	if len(c.shown) > 0 {
		st.Shown = make(map[string][]SpanID, len(c.shown))
		for k, v := range c.shown {
			st.Shown[k] = append([]SpanID(nil), v...)
		}
	}
	return st
}

// Restore reinstates linkage state captured by Export. No-op when
// either side is nil.
func (c *ChainRecorder) Restore(st *ChainState) {
	if c == nil || st == nil {
		return
	}
	c.visit, c.chain, c.click = st.Visit, st.Chain, st.Click
	c.regs = make(map[string]SpanID, len(st.Regs))
	for k, v := range st.Regs {
		c.regs[k] = v
	}
	c.shown = make(map[string][]SpanID, len(st.Shown))
	for k, v := range st.Shown {
		c.shown[k] = append([]SpanID(nil), v...)
	}
}

// Event records one browser event, linking it into the chain in
// progress. at is the event's (simulated) time; fields are stored as
// span attributes verbatim.
func (c *ChainRecorder) Event(at time.Time, kind string, fields map[string]string) {
	if c == nil {
		return
	}
	switch kind {
	case evVisit:
		c.click = 0
		c.tr.EndAt(c.visit, at)
		c.visit = c.tr.StartAt(c.container, kind, 0, fields, at)

	case evSWRegistered:
		id := c.tr.Point(c.container, kind, c.visit, fields, at)
		if tok := fields["token"]; tok != "" {
			c.regs[tok] = id
		}

	case evPushReceived:
		c.click = 0
		parent := c.regs[fields["token"]]
		c.chain = c.tr.StartAt(c.container, kind, parent, fields, at)

	case evNotificationShown:
		id := c.tr.StartAt(c.container, kind, c.chain, fields, at)
		if t := fields["title"]; t != "" {
			c.shown[t] = append(c.shown[t], id)
		}

	case evNotificationClicked:
		var parent SpanID
		t := fields["title"]
		if q := c.shown[t]; len(q) > 0 {
			parent = q[0]
			if len(q) == 1 {
				delete(c.shown, t)
			} else {
				c.shown[t] = q[1:]
			}
		}
		c.click = c.tr.StartAt(c.container, kind, parent, fields, at)

	case evSWRequest:
		parent := c.click
		if parent == 0 {
			parent = c.chain
		}
		c.tr.Point(c.container, kind, parent, fields, at)

	case evNavigation, evRedirect:
		parent := c.click
		if parent == 0 {
			parent = c.visit
		}
		c.tr.Point(c.container, kind, parent, fields, at)

	case evLandingPage, evTabCrashed:
		parent := c.click
		if parent == 0 {
			parent = c.visit
		}
		c.tr.Point(c.container, kind, parent, fields, at)
		if c.click != 0 {
			c.tr.EndAt(c.click, at)
			c.tr.EndAt(c.chain, at)
			c.click = 0
		}

	default:
		// Permission prompts, page requests, and anything added later
		// hang off the visit in progress.
		c.tr.Point(c.container, kind, c.visit, fields, at)
	}
}

// Chain is one WPN attack chain rebuilt from a trace: everything that
// happened to a single notification.
type Chain struct {
	Container string

	// Subscription context.
	Origin       string
	SWURL        string
	Token        string
	RegisteredAt time.Time

	// The notification.
	Title   string
	Body    string
	Target  string
	ShownAt time.Time

	// Click consequences.
	ClickedAt     time.Time
	Clicked       bool
	SWRequests    []string
	RedirectChain []string
	LandingURL    string
	LandingTitle  string
	Crashed       bool
}

// Chains rebuilds WPN attack chains from a trace. It replays each
// container's spans in ID (emission) order, tracking registrations by
// subscription token and pairing every notification_shown with its
// click, SW requests, navigation hops and landing page. Chains come out
// by container name; within a container, the clicked ones in click
// order, then the never-clicked ones in display order.
//
// It replays rather than following parent links because parent links
// are only as complete as the recorder's state: a container adopted by
// another shard of a fleet starts its recorder afresh, so its later
// pushes are roots, while the replay still finds the registration
// earlier in the container's stream.
func Chains(spans []Span) []Chain {
	ordered := append([]Span(nil), spans...)
	sort.SliceStable(ordered, func(i, j int) bool {
		a, b := ordered[i], ordered[j]
		if a.Container != b.Container {
			return a.Container < b.Container
		}
		return a.ID < b.ID
	})
	var chains []Chain
	for len(ordered) > 0 {
		n := 1
		for n < len(ordered) && ordered[n].Container == ordered[0].Container {
			n++
		}
		chains = append(chains, replayContainer(ordered[:n])...)
		ordered = ordered[n:]
	}
	return chains
}

// registration is the subscription context a push inherits.
type registration struct {
	origin string
	token  string
	at     time.Time
}

// replayContainer rebuilds the chains of one container's spans, given
// in ID order.
func replayContainer(spans []Span) []Chain {
	regs := map[string]registration{} // subscription token → registration
	var reg registration              // registration of the latest push
	var chains []Chain
	// pending holds displayed-but-unclicked notifications (several can
	// be on screen at once); current is the clicked chain collecting
	// its consequences.
	var pending []*Chain
	var current *Chain

	finishCurrent := func() {
		if current != nil {
			chains = append(chains, *current)
			current = nil
		}
	}

	for _, sp := range spans {
		a := sp.Attrs
		switch sp.Name {
		case evSWRegistered:
			regs[a["token"]] = registration{origin: a["origin"], token: a["token"], at: sp.Start}

		case evVisit:
			finishCurrent()

		case evPushReceived:
			finishCurrent()
			reg = regs[a["token"]]

		case evNotificationShown:
			pending = append(pending, &Chain{
				Container:    sp.Container,
				Origin:       reg.origin,
				SWURL:        a["sw"],
				Token:        reg.token,
				RegisteredAt: reg.at,
				Title:        a["title"],
				Body:         a["body"],
				Target:       a["target"],
				ShownAt:      sp.Start,
			})

		case evNotificationClicked:
			finishCurrent()
			for i, p := range pending {
				if p.Title == a["title"] {
					current = p
					current.Clicked = true
					current.ClickedAt = sp.Start
					pending = append(pending[:i], pending[i+1:]...)
					break
				}
			}

		case evSWRequest:
			if u := a["url"]; current != nil && u != "" {
				current.SWRequests = append(current.SWRequests, u)
			}

		case evNavigation:
			if u := a["url"]; current != nil && u != "" {
				current.RedirectChain = append(current.RedirectChain, u)
			}

		case evLandingPage:
			if current != nil {
				current.LandingURL = a["url"]
				current.LandingTitle = a["title"]
				finishCurrent()
			}

		case evTabCrashed:
			if current != nil {
				current.Crashed = true
				finishCurrent()
			}
		}
	}
	finishCurrent()
	// Displayed-but-never-clicked notifications still appear as chains.
	for _, p := range pending {
		chains = append(chains, *p)
	}
	return chains
}
