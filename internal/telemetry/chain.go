package telemetry

import "time"

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
// event's own fields and simulated-clock time — so a trace is a lossless
// re-encoding of the audit log, and internal/audit can reconstruct
// chains from either (see audit.EntriesFromSpans).
//
// A ChainRecorder serves a single browser (one container); the Tracer
// behind it may be shared by many. The nil ChainRecorder ignores
// everything.
type ChainRecorder struct {
	tr        *Tracer
	container string

	visit SpanID            // current top-level visit span
	swReg map[string]SpanID // SW URL → registration span
	chain SpanID            // most recent push_received span
	click SpanID            // clicked chain collecting consequences
	shown map[string]SpanID // displayed-but-unclicked, by title
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
		swReg:     make(map[string]SpanID),
		shown:     make(map[string]SpanID),
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
	Visit SpanID            `json:"visit,omitempty"`
	SWReg map[string]SpanID `json:"sw_reg,omitempty"`
	Chain SpanID            `json:"chain,omitempty"`
	Click SpanID            `json:"click,omitempty"`
	Shown map[string]SpanID `json:"shown,omitempty"`
}

// Export snapshots the recorder's linkage state. Returns nil on a nil
// recorder (tracing disabled).
func (c *ChainRecorder) Export() *ChainState {
	if c == nil {
		return nil
	}
	st := &ChainState{Visit: c.visit, Chain: c.chain, Click: c.click}
	if len(c.swReg) > 0 {
		st.SWReg = make(map[string]SpanID, len(c.swReg))
		for k, v := range c.swReg {
			st.SWReg[k] = v
		}
	}
	if len(c.shown) > 0 {
		st.Shown = make(map[string]SpanID, len(c.shown))
		for k, v := range c.shown {
			st.Shown[k] = v
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
	c.swReg = make(map[string]SpanID, len(st.SWReg))
	for k, v := range st.SWReg {
		c.swReg[k] = v
	}
	c.shown = make(map[string]SpanID, len(st.Shown))
	for k, v := range st.Shown {
		c.shown[k] = v
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
		c.tr.EndAt(c.visit, at)
		c.visit = c.tr.StartAt(c.container, kind, 0, fields, at)

	case evSWRegistered:
		id := c.tr.Point(c.container, kind, c.visit, fields, at)
		if sw := fields["sw"]; sw != "" {
			c.swReg[sw] = id
		}

	case evPushReceived:
		parent := c.swReg[fields["sw"]]
		c.chain = c.tr.StartAt(c.container, kind, parent, fields, at)

	case evNotificationShown:
		id := c.tr.StartAt(c.container, kind, c.chain, fields, at)
		if t := fields["title"]; t != "" {
			c.shown[t] = id
		}

	case evNotificationClicked:
		parent := c.shown[fields["title"]]
		delete(c.shown, fields["title"])
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
