// Package serviceworker implements the simulated Service Worker runtime.
//
// Real push-ad service workers are small JavaScript event handlers: on a
// `push` event they may fetch ad metadata from their ad network and call
// showNotification; on `notificationclick` they open the ad's landing
// page and fire tracking beacons. This package replaces the JS engine
// with a declarative op VM producing exactly those side effects, which is
// all the instrumented browser observed in the paper (network requests,
// notification displays, window opens). Scripts are JSON documents served
// at the SW script URL by the synthetic ecosystem.
package serviceworker

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"pushadminer/internal/webpush"
)

// Op kinds understood by the VM.
const (
	OpFetch            = "fetch"            // GET URL, merge JSON response into env under SaveAs prefix
	OpShowNotification = "shownotification" // display a (templated) notification
	OpOpenWindow       = "openwindow"       // navigate a new tab to URL (click handlers)
	OpPostback         = "postback"         // fire-and-forget tracking GET
	OpSet              = "set"              // set an env variable
)

// Op is one step of a service-worker event handler. String fields may
// contain {{var}} templates resolved against the event environment.
type Op struct {
	Do           string                `json:"do"`
	URL          string                `json:"url,omitempty"`
	SaveAs       string                `json:"save_as,omitempty"`
	Notification *webpush.Notification `json:"notification,omitempty"`
	Key          string                `json:"key,omitempty"`
	Value        string                `json:"value,omitempty"`
	// IfAction gates the op: it runs only when the clicked notification
	// action id equals this value ("" = always run). Lets click
	// handlers branch on custom action buttons (§2.2).
	IfAction string `json:"if_action,omitempty"`
}

// Script is a parsed service worker: its script URL plus the op programs
// for the push and notificationclick events. A script with no OnPush ops
// falls back to displaying the notification embedded in the push payload;
// a script with no OnClick ops falls back to opening the notification's
// target URL — the behaviour of the simplest real-world SW code.
type Script struct {
	URL     string `json:"url"`
	OnPush  []Op   `json:"on_push,omitempty"`
	OnClick []Op   `json:"on_click,omitempty"`
}

// Parse decodes a script from its serialized JSON source.
func Parse(src []byte) (*Script, error) {
	var s Script
	if err := json.Unmarshal(src, &s); err != nil {
		return nil, fmt.Errorf("serviceworker: parse script: %w", err)
	}
	return &s, nil
}

// Source serializes the script to the JSON form Parse accepts.
func (s *Script) Source() []byte {
	b, err := json.Marshal(s)
	if err != nil {
		panic(fmt.Sprintf("serviceworker: marshal script: %v", err))
	}
	return b
}

// Registration ties a parsed script to the origin that registered it and
// its push subscription, mirroring a ServiceWorkerRegistration.
type Registration struct {
	Origin string
	Scope  string
	Script *Script
	Sub    webpush.Subscription
}

// RequestRecord describes one network request issued by a service worker,
// as logged by the browser instrumentation (§4.1 step 3).
type RequestRecord struct {
	URL      string
	Method   string
	Status   int
	SWURL    string
	Error    string
	Response string // truncated response body
}

// Runtime executes service-worker event handlers. Hooks are the
// instrumentation seams of the browser: every SW network request, every
// showNotification call, and every openWindow call is reported.
type Runtime struct {
	// Client issues the SW's network requests. Required.
	Client *http.Client
	// FetchRetries is how many extra attempts an OpFetch gets when the
	// request fails at the transport level or answers 5xx/429. Real SWs
	// (and real browser fetch stacks) retry transient ad-fetch
	// failures; without this a single injected 503 silently eats the
	// notification the fetch was feeding. Default 0 (no retries).
	FetchRetries int
	// OnRequest, if set, observes every network request the SW makes.
	OnRequest func(RequestRecord)
	// OnShowNotification, if set, receives each displayed notification.
	OnShowNotification func(webpush.Notification)
	// OnOpenWindow, if set, receives each URL the SW opens a window to.
	OnOpenWindow func(url string)
}

// Env is the event-handler variable environment.
type Env map[string]string

// clone returns a copy so handler runs don't leak state.
func (e Env) clone() Env {
	out := make(Env, len(e))
	for k, v := range e {
		out[k] = v
	}
	return out
}

// expand resolves {{var}} templates against the environment. Unknown
// variables expand to the empty string.
func expand(s string, env Env) string {
	if !strings.Contains(s, "{{") {
		return s
	}
	var b strings.Builder
	for {
		i := strings.Index(s, "{{")
		if i < 0 {
			b.WriteString(s)
			return b.String()
		}
		j := strings.Index(s[i:], "}}")
		if j < 0 {
			b.WriteString(s)
			return b.String()
		}
		b.WriteString(s[:i])
		key := strings.TrimSpace(s[i+2 : i+j])
		b.WriteString(env[key])
		s = s[i+j+2:]
	}
}

// DispatchPush delivers a push message to the registration's script,
// running its push handler. The push payload populates the environment:
// notification fields under "payload.*", the ad id as "ad_id", and the
// campaign hint as "c".
func (rt *Runtime) DispatchPush(reg *Registration, msg webpush.Message) error {
	payload, err := webpush.DecodePayload(msg.Data)
	if err != nil {
		return err
	}
	env := Env{"ad_id": payload.AdID, "c": payload.CampaignHint, "origin": reg.Origin}
	if n := payload.Notification; n != nil {
		env["payload.title"] = n.Title
		env["payload.body"] = n.Body
		env["payload.icon"] = n.Icon
		env["payload.image"] = n.Image
		env["payload.target_url"] = n.TargetURL
	}
	ops := reg.Script.OnPush
	if len(ops) == 0 {
		// Default handler: show the embedded notification verbatim.
		if payload.Notification == nil {
			return fmt.Errorf("serviceworker: push with no handler and no notification payload")
		}
		rt.show(*payload.Notification)
		return nil
	}
	return rt.run(reg, ops, env)
}

// DispatchNotificationClick delivers a user click on a displayed
// notification's body to the registration's click handler.
func (rt *Runtime) DispatchNotificationClick(reg *Registration, n webpush.Notification) error {
	return rt.DispatchNotificationClickAction(reg, n, "")
}

// DispatchNotificationClickAction delivers a click on a specific action
// button ("" = the notification body). The notification's fields
// populate the environment under "n.*", and the action id as
// "n.action".
func (rt *Runtime) DispatchNotificationClickAction(reg *Registration, n webpush.Notification, action string) error {
	env := Env{
		"n.title":      n.Title,
		"n.body":       n.Body,
		"n.target_url": n.TargetURL,
		"n.action":     action,
		"origin":       reg.Origin,
	}
	ops := reg.Script.OnClick
	if len(ops) == 0 {
		// Default: navigate to the notification's target.
		if n.TargetURL != "" && rt.OnOpenWindow != nil {
			rt.OnOpenWindow(n.TargetURL)
		}
		return nil
	}
	return rt.run(reg, ops, env)
}

func (rt *Runtime) run(reg *Registration, ops []Op, env Env) error {
	env = env.clone()
	for i, op := range ops {
		if op.IfAction != "" && env["n.action"] != op.IfAction {
			continue
		}
		switch strings.ToLower(op.Do) {
		case OpSet:
			env[op.Key] = expand(op.Value, env)

		case OpFetch:
			url := expand(op.URL, env)
			rec := rt.doGET(reg, url)
			for retry := 0; retry < rt.FetchRetries && fetchFailed(rec); retry++ {
				rec = rt.doGET(reg, url)
			}
			if fetchFailed(rec) {
				// SWs tolerate failed ad fetches; later ops may still run
				// (e.g. showing a fallback notification).
				continue
			}
			// Merge flat JSON object fields into env under the prefix.
			var obj map[string]any
			if err := json.Unmarshal([]byte(rec.Response), &obj); err == nil {
				prefix := op.SaveAs
				if prefix != "" && !strings.HasSuffix(prefix, ".") {
					prefix += "."
				}
				for k, v := range obj {
					env[prefix+k] = fmt.Sprint(v)
				}
			}

		case OpShowNotification:
			if op.Notification == nil {
				return fmt.Errorf("serviceworker: op %d: shownotification without notification", i)
			}
			n := *op.Notification
			n.Title = expand(n.Title, env)
			n.Body = expand(n.Body, env)
			n.Icon = expand(n.Icon, env)
			n.Image = expand(n.Image, env)
			n.TargetURL = expand(n.TargetURL, env)
			rt.show(n)

		case OpOpenWindow:
			if rt.OnOpenWindow != nil {
				rt.OnOpenWindow(expand(op.URL, env))
			}

		case OpPostback:
			rt.doGET(reg, expand(op.URL, env))

		default:
			return fmt.Errorf("serviceworker: op %d: unknown op %q", i, op.Do)
		}
	}
	return nil
}

func (rt *Runtime) show(n webpush.Notification) {
	if rt.OnShowNotification != nil {
		rt.OnShowNotification(n)
	}
}

// fetchFailed reports whether a fetch outcome is transient-retryable:
// a transport failure, a truncated body, or a 5xx/429 answer.
func fetchFailed(rec RequestRecord) bool {
	return rec.Error != "" || rec.Status >= 500 || rec.Status == http.StatusTooManyRequests
}

// doGET performs a GET as the service worker and reports it through
// OnRequest. Bodies are truncated to 4 KiB in the record.
func (rt *Runtime) doGET(reg *Registration, url string) RequestRecord {
	rec := RequestRecord{URL: url, Method: http.MethodGet, SWURL: reg.Script.URL}
	resp, err := rt.Client.Get(url)
	if err != nil {
		rec.Error = classifyNetError(err)
	} else {
		defer resp.Body.Close()
		rec.Status = resp.StatusCode
		body, err := io.ReadAll(io.LimitReader(resp.Body, 4096))
		rec.Response = string(body)
		if err != nil {
			// A body cut mid-stream is a failed fetch, not a short
			// success.
			rec.Error = classifyNetError(err)
		}
	}
	if rt.OnRequest != nil {
		rt.OnRequest(rec)
	}
	return rec
}

// classifyNetError collapses transport error text into a stable
// category. Raw messages name the request and how it failed (an
// aborted response as "vnet: connection closed before the response", a
// cut body as "unexpected EOF"), and these strings end up inside WPN
// records, which must not depend on how the network reports a fault.
// Both read as "net: connection failed".
func classifyNetError(err error) string {
	s := err.Error()
	switch {
	case strings.Contains(s, "no such host"):
		return "net: host unresolvable"
	case strings.Contains(s, "timeout") || strings.Contains(s, "deadline"):
		return "net: timeout"
	default:
		return "net: connection failed"
	}
}
