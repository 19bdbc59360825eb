package browser

import (
	"fmt"

	"pushadminer/internal/fcm"
	"pushadminer/internal/serviceworker"
	"pushadminer/internal/webpush"
)

// PumpPush polls the push service for every subscription the browser
// holds and dispatches received messages to their service workers,
// causing notifications to be displayed (steps 5–6 of Figure 3). It
// returns the number of push messages processed. pushHost selects the
// push service (fcm.DefaultHost if empty).
//
// PumpPush is the serial composition of PollPush and DispatchPushes;
// the crawler's batched monitor calls the two halves separately so the
// breaker-mediated poll stays serialized while dispatch fans out.
func (b *Browser) PumpPush(pushHost string) (int, error) {
	msgs, err := b.PollPush(pushHost)
	if err != nil {
		return 0, err
	}
	b.DispatchPushes(msgs)
	return len(msgs), nil
}

// PollPush polls the push service for every subscription the browser
// holds and returns the undelivered messages without dispatching them.
// The poll rides the shared per-host circuit breaker, so callers that
// parallelize across browsers must keep PollPush calls in a
// deterministic serial order.
func (b *Browser) PollPush(pushHost string) ([]webpush.Message, error) {
	regs := b.Registrations()
	if len(regs) == 0 {
		return nil, nil
	}
	tokens := make([]string, 0, len(regs))
	for _, r := range regs {
		tokens = append(tokens, r.Sub.Token)
	}
	client := fcm.NewClientWith(b.cfg.Client, pushHost, b.cfg.PushBreaker).WithRetryMetrics(b.met.retry)
	return client.Poll(tokens)
}

// DispatchPushes runs the service-worker push events for messages
// previously returned by PollPush, causing notifications to be
// displayed. It returns the number of messages dispatched (messages for
// unknown tokens are skipped). Dispatch traffic uses the browser's own
// client — no shared breaker — so distinct browsers may dispatch
// concurrently.
func (b *Browser) DispatchPushes(msgs []webpush.Message) int {
	if len(msgs) == 0 {
		return 0
	}
	regs := b.Registrations()
	byToken := make(map[string]*serviceworker.Registration, len(regs))
	for _, r := range regs {
		byToken[r.Sub.Token] = r
	}
	n := 0
	for _, msg := range msgs {
		reg := byToken[msg.Token]
		if reg == nil {
			continue
		}
		b.log(EvPushReceived, "token", msg.Token, "sw", reg.Script.URL)
		b.dispatchPush(reg, msg)
		n++
	}
	return n
}

// dispatchPush runs one push event on a registration, capturing displayed
// notifications and SW requests.
func (b *Browser) dispatchPush(reg *serviceworker.Registration, msg webpush.Message) {
	var reqs []serviceworker.RequestRecord
	b.mu.Lock()
	b.currentSWRequests = &reqs
	firstNew := len(b.notifs)
	b.mu.Unlock()

	adID := ""
	if p, err := webpush.DecodePayload(msg.Data); err == nil {
		adID = p.AdID
	}
	b.runtime.OnShowNotification = func(n webpush.Notification) {
		if err := n.Validate(); err != nil {
			// The browser refuses to display an untitled notification;
			// count it so the loss shows up in degradation reports.
			b.mu.Lock()
			b.droppedNotifs++
			b.mu.Unlock()
			b.met.dropped.Inc()
			return
		}
		dn := &DisplayedNotification{
			Notification: n,
			Registration: reg,
			ShownAt:      b.cfg.Clock.Now(),
			PayloadAdID:  adID,
		}
		b.mu.Lock()
		b.notifs = append(b.notifs, dn)
		b.mu.Unlock()
		b.met.shown.Inc()
		b.log(EvNotificationShown, "title", n.Title, "body", n.Body, "target", n.TargetURL,
			"sw", reg.Script.URL, "surface", b.surface())
	}
	err := b.runtime.DispatchPush(reg, msg)
	b.runtime.OnShowNotification = nil

	b.mu.Lock()
	b.currentSWRequests = nil
	// Attach the dispatch's SW requests to the notifications it showed.
	for _, dn := range b.notifs[firstNew:] {
		dn.SWRequests = reqs
	}
	b.mu.Unlock()
	if err != nil && b.traced() {
		b.log(EvSWRequest, "error", "push dispatch: "+err.Error())
	}
}

// surface names where notifications appear: the browser's message center
// on desktop, the OS tray on Android (§4.2).
func (b *Browser) surface() string {
	if b.cfg.Device == Mobile {
		return "os_tray"
	}
	return "message_center"
}

// Notifications returns the notifications currently displayed (clicked
// or not).
func (b *Browser) Notifications() []*DisplayedNotification {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]*DisplayedNotification, len(b.notifs))
	copy(out, b.notifs)
	return out
}

// ClickOutcome is everything observed from auto-clicking one
// notification: the click-time SW activity and the resulting navigation,
// if any.
type ClickOutcome struct {
	Notification *DisplayedNotification
	SWRequests   []serviceworker.RequestRecord
	Navigation   *Navigation // nil if the click opened no window
	NavError     string
}

// ProcessClicks auto-clicks every displayed notification whose click
// delay has elapsed (the instrumented MessageCenter behaviour, §4.1) and
// follows any window the service worker opens, recording the full
// redirect chain and landing page. On mobile this models the
// accessibility-service tap on the notification tray (§4.2).
func (b *Browser) ProcessClicks() []ClickOutcome {
	now := b.cfg.Clock.Now()
	b.mu.Lock()
	var due []*DisplayedNotification
	for _, dn := range b.notifs {
		if !dn.Clicked && !now.Before(dn.ShownAt.Add(b.cfg.ClickDelay)) {
			dn.Clicked = true
			due = append(due, dn)
		}
	}
	b.mu.Unlock()

	var outcomes []ClickOutcome
	for _, dn := range due {
		outcomes = append(outcomes, b.click(dn))
	}
	return outcomes
}

// ClickAction simulates the user tapping a specific action button on a
// displayed notification (§2.2's custom actions). The crawler's default
// automation clicks the body; ClickAction is the API for exercising
// action buttons.
func (b *Browser) ClickAction(dn *DisplayedNotification, action string) ClickOutcome {
	b.mu.Lock()
	dn.Clicked = true
	b.mu.Unlock()
	return b.clickWith(dn, action)
}

func (b *Browser) click(dn *DisplayedNotification) ClickOutcome {
	return b.clickWith(dn, "")
}

func (b *Browser) clickWith(dn *DisplayedNotification, action string) ClickOutcome {
	out := ClickOutcome{Notification: dn}
	b.met.clicked.Inc()
	b.log(EvNotificationClicked, "title", dn.Notification.Title, "sw", dn.Registration.Script.URL,
		"action", action)

	var reqs []serviceworker.RequestRecord
	b.mu.Lock()
	b.currentSWRequests = &reqs
	b.pendingWindows = nil
	b.mu.Unlock()

	b.runtime.OnOpenWindow = func(u string) {
		b.mu.Lock()
		b.pendingWindows = append(b.pendingWindows, u)
		b.mu.Unlock()
	}
	err := b.runtime.DispatchNotificationClickAction(dn.Registration, dn.Notification, action)
	b.runtime.OnOpenWindow = nil

	b.mu.Lock()
	b.currentSWRequests = nil
	windows := b.pendingWindows
	b.pendingWindows = nil
	b.mu.Unlock()

	out.SWRequests = reqs
	if err != nil {
		out.NavError = fmt.Sprintf("click dispatch: %v", err)
		return out
	}
	if len(windows) > 0 {
		nav, err := b.Navigate(windows[0])
		out.Navigation = nav
		if err != nil {
			out.NavError = err.Error()
		}
	}
	return out
}
