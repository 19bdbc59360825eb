package serviceworker

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"pushadminer/internal/vnet"
	"pushadminer/internal/webpush"
)

func TestParseRoundTrip(t *testing.T) {
	s := &Script{
		URL: "https://cdn.adnet.test/sw.js",
		OnPush: []Op{
			{Do: OpFetch, URL: "https://adnet.test/ad?id={{ad_id}}", SaveAs: "ad"},
			{Do: OpShowNotification, Notification: &webpush.Notification{
				Title: "{{ad.title}}", Body: "{{ad.body}}", TargetURL: "{{ad.target}}",
			}},
		},
		OnClick: []Op{
			{Do: OpPostback, URL: "https://adnet.test/click?u={{n.target_url}}"},
			{Do: OpOpenWindow, URL: "{{n.target_url}}"},
		},
	}
	parsed, err := Parse(s.Source())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parsed, s) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", parsed, s)
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse([]byte("not json")); err == nil {
		t.Error("bad script accepted")
	}
}

func TestExpand(t *testing.T) {
	env := Env{"a": "1", "b.c": "2"}
	cases := []struct{ in, want string }{
		{"plain", "plain"},
		{"x={{a}}", "x=1"},
		{"{{a}}{{b.c}}", "12"},
		{"{{ a }}", "1"},
		{"{{missing}}", ""},
		{"{{unclosed", "{{unclosed"},
	}
	for _, c := range cases {
		if got := expand(c.in, env); got != c.want {
			t.Errorf("expand(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// testHarness wires a runtime to a vnet with an ad server, capturing all
// hook invocations.
type testHarness struct {
	rt       *Runtime
	shown    []webpush.Notification
	opened   []string
	requests []RequestRecord
}

func newHarness(t *testing.T) *testHarness {
	t.Helper()
	n := vnet.New()
	t.Cleanup(func() { n.Close() })
	n.HandleFunc("adnet.test", func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/ad":
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, `{"title":"Win a prize %s","body":"Claim now","target":"https://land.test/offer"}`,
				r.URL.Query().Get("id"))
		case "/click":
			w.WriteHeader(http.StatusNoContent)
		default:
			http.NotFound(w, r)
		}
	})
	h := &testHarness{}
	h.rt = &Runtime{
		Client:             n.Client(),
		OnRequest:          func(r RequestRecord) { h.requests = append(h.requests, r) },
		OnShowNotification: func(n webpush.Notification) { h.shown = append(h.shown, n) },
		OnOpenWindow:       func(u string) { h.opened = append(h.opened, u) },
	}
	return h
}

func adScript() *Script {
	return &Script{
		URL: "https://cdn.adnet.test/sw.js",
		OnPush: []Op{
			{Do: OpFetch, URL: "https://adnet.test/ad?id={{ad_id}}", SaveAs: "ad"},
			{Do: OpShowNotification, Notification: &webpush.Notification{
				Title: "{{ad.title}}", Body: "{{ad.body}}", TargetURL: "{{ad.target}}",
			}},
		},
		OnClick: []Op{
			{Do: OpPostback, URL: "https://adnet.test/click?u={{n.target_url}}"},
			{Do: OpOpenWindow, URL: "{{n.target_url}}"},
		},
	}
}

func reg(s *Script) *Registration {
	return &Registration{Origin: "https://pub.test", Scope: "/", Script: s}
}

func TestDispatchPushFetchesAndShows(t *testing.T) {
	h := newHarness(t)
	msg := webpush.Message{Data: webpush.EncodePayload(webpush.Payload{AdID: "A7"})}
	if err := h.rt.DispatchPush(reg(adScript()), msg); err != nil {
		t.Fatal(err)
	}
	if len(h.requests) != 1 {
		t.Fatalf("SW requests = %d, want 1", len(h.requests))
	}
	if h.requests[0].URL != "https://adnet.test/ad?id=A7" {
		t.Errorf("fetch URL = %q", h.requests[0].URL)
	}
	if h.requests[0].SWURL != "https://cdn.adnet.test/sw.js" {
		t.Errorf("SWURL = %q", h.requests[0].SWURL)
	}
	if len(h.shown) != 1 {
		t.Fatalf("notifications shown = %d, want 1", len(h.shown))
	}
	if h.shown[0].Title != "Win a prize A7" || h.shown[0].TargetURL != "https://land.test/offer" {
		t.Errorf("notification = %+v", h.shown[0])
	}
}

func TestDispatchPushDefaultHandler(t *testing.T) {
	h := newHarness(t)
	script := &Script{URL: "https://pub.test/sw.js"} // no handlers
	n := &webpush.Notification{Title: "Breaking news", Body: "Something happened", TargetURL: "https://pub.test/story"}
	msg := webpush.Message{Data: webpush.EncodePayload(webpush.Payload{Notification: n})}
	if err := h.rt.DispatchPush(reg(script), msg); err != nil {
		t.Fatal(err)
	}
	if len(h.shown) != 1 || h.shown[0].Title != "Breaking news" {
		t.Fatalf("shown = %+v", h.shown)
	}
	if len(h.requests) != 0 {
		t.Errorf("default handler issued %d requests", len(h.requests))
	}
}

func TestDispatchPushNoHandlerNoPayload(t *testing.T) {
	h := newHarness(t)
	script := &Script{URL: "https://pub.test/sw.js"}
	msg := webpush.Message{Data: webpush.EncodePayload(webpush.Payload{AdID: "x"})}
	if err := h.rt.DispatchPush(reg(script), msg); err == nil {
		t.Error("push with nothing to show succeeded")
	}
}

func TestDispatchPushBadPayload(t *testing.T) {
	h := newHarness(t)
	if err := h.rt.DispatchPush(reg(adScript()), webpush.Message{Data: json.RawMessage(`{bad`)}); err == nil {
		t.Error("bad payload accepted")
	}
}

func TestDispatchClickPostbackAndOpen(t *testing.T) {
	h := newHarness(t)
	n := webpush.Notification{Title: "Win", TargetURL: "https://land.test/offer"}
	if err := h.rt.DispatchNotificationClick(reg(adScript()), n); err != nil {
		t.Fatal(err)
	}
	if len(h.requests) != 1 || h.requests[0].URL != "https://adnet.test/click?u=https://land.test/offer" {
		t.Fatalf("postback = %+v", h.requests)
	}
	if len(h.opened) != 1 || h.opened[0] != "https://land.test/offer" {
		t.Fatalf("opened = %v", h.opened)
	}
}

func TestDispatchClickDefault(t *testing.T) {
	h := newHarness(t)
	script := &Script{URL: "https://pub.test/sw.js"}
	n := webpush.Notification{Title: "x", TargetURL: "https://pub.test/story"}
	if err := h.rt.DispatchNotificationClick(reg(script), n); err != nil {
		t.Fatal(err)
	}
	if len(h.opened) != 1 || h.opened[0] != "https://pub.test/story" {
		t.Fatalf("opened = %v", h.opened)
	}
	// No target URL → no window.
	h.opened = nil
	if err := h.rt.DispatchNotificationClick(reg(script), webpush.Notification{Title: "y"}); err != nil {
		t.Fatal(err)
	}
	if len(h.opened) != 0 {
		t.Errorf("opened without target: %v", h.opened)
	}
}

func TestFetchFailureIsTolerated(t *testing.T) {
	h := newHarness(t)
	script := &Script{
		URL: "https://cdn.adnet.test/sw.js",
		OnPush: []Op{
			{Do: OpFetch, URL: "https://unknown-host.test/ad", SaveAs: "ad"},
			{Do: OpShowNotification, Notification: &webpush.Notification{Title: "Fallback offer"}},
		},
	}
	msg := webpush.Message{Data: webpush.EncodePayload(webpush.Payload{AdID: "x"})}
	if err := h.rt.DispatchPush(reg(script), msg); err != nil {
		t.Fatal(err)
	}
	if len(h.shown) != 1 || h.shown[0].Title != "Fallback offer" {
		t.Fatalf("fallback notification not shown: %+v", h.shown)
	}
	// The failed request is still instrumented (it returned 502 from
	// vnet's unknown-host handler, which is a response, not an error).
	if len(h.requests) != 1 || h.requests[0].Status != http.StatusBadGateway {
		t.Fatalf("requests = %+v", h.requests)
	}
}

func TestUnknownOp(t *testing.T) {
	h := newHarness(t)
	script := &Script{URL: "x", OnPush: []Op{{Do: "eval"}}}
	msg := webpush.Message{Data: webpush.EncodePayload(webpush.Payload{AdID: "x"})}
	if err := h.rt.DispatchPush(reg(script), msg); err == nil {
		t.Error("unknown op accepted")
	}
}

func TestSetOp(t *testing.T) {
	h := newHarness(t)
	script := &Script{URL: "x", OnPush: []Op{
		{Do: OpSet, Key: "greeting", Value: "hello {{ad_id}}"},
		{Do: OpShowNotification, Notification: &webpush.Notification{Title: "{{greeting}}"}},
	}}
	msg := webpush.Message{Data: webpush.EncodePayload(webpush.Payload{AdID: "Z"})}
	if err := h.rt.DispatchPush(reg(script), msg); err != nil {
		t.Fatal(err)
	}
	if len(h.shown) != 1 || h.shown[0].Title != "hello Z" {
		t.Fatalf("shown = %+v", h.shown)
	}
}

func TestShowNotificationOpRequiresNotification(t *testing.T) {
	h := newHarness(t)
	script := &Script{URL: "x", OnPush: []Op{{Do: OpShowNotification}}}
	msg := webpush.Message{Data: webpush.EncodePayload(webpush.Payload{AdID: "x"})}
	if err := h.rt.DispatchPush(reg(script), msg); err == nil {
		t.Error("shownotification without notification accepted")
	}
}

func TestPushPayloadFieldsInEnv(t *testing.T) {
	h := newHarness(t)
	script := &Script{URL: "x", OnPush: []Op{
		{Do: OpShowNotification, Notification: &webpush.Notification{
			Title: "re: {{payload.title}}", TargetURL: "{{payload.target_url}}",
		}},
	}}
	msg := webpush.Message{Data: webpush.EncodePayload(webpush.Payload{
		Notification: &webpush.Notification{Title: "Original", TargetURL: "https://t.test/x"},
	})}
	if err := h.rt.DispatchPush(reg(script), msg); err != nil {
		t.Fatal(err)
	}
	if h.shown[0].Title != "re: Original" || h.shown[0].TargetURL != "https://t.test/x" {
		t.Fatalf("shown = %+v", h.shown[0])
	}
}

func TestActionGatedOps(t *testing.T) {
	h := newHarness(t)
	script := &Script{
		URL: "https://x/sw.js",
		OnClick: []Op{
			{Do: OpOpenWindow, URL: "https://main.test/", IfAction: ""},
			{Do: OpOpenWindow, URL: "https://settings.test/", IfAction: "settings"},
			{Do: OpPostback, URL: "https://adnet.test/click?a={{n.action}}", IfAction: "settings"},
		},
	}
	n := webpush.Notification{Title: "x", TargetURL: "https://t/x"}
	// Body click: only ungated ops run.
	if err := h.rt.DispatchNotificationClick(reg(script), n); err != nil {
		t.Fatal(err)
	}
	if len(h.opened) != 1 || h.opened[0] != "https://main.test/" {
		t.Fatalf("body click opened %v", h.opened)
	}
	if len(h.requests) != 0 {
		t.Fatalf("body click fired gated postback: %v", h.requests)
	}
	// Action click: gated ops run too.
	h.opened, h.requests = nil, nil
	if err := h.rt.DispatchNotificationClickAction(reg(script), n, "settings"); err != nil {
		t.Fatal(err)
	}
	if len(h.opened) != 2 || h.opened[1] != "https://settings.test/" {
		t.Fatalf("action click opened %v", h.opened)
	}
	if len(h.requests) != 1 || !strings.Contains(h.requests[0].URL, "a=settings") {
		t.Fatalf("action postback = %v", h.requests)
	}
}
