package fcm

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"pushadminer/internal/vnet"
	"pushadminer/internal/webpush"
)

func TestRegisterUniqueTokens(t *testing.T) {
	s := New("")
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		sub := s.Register("https://site.test", "https://site.test/sw.js")
		if seen[sub.Token] {
			t.Fatalf("duplicate token %q", sub.Token)
		}
		seen[sub.Token] = true
		if !strings.HasPrefix(sub.Endpoint, "https://"+DefaultHost+"/send/") {
			t.Fatalf("endpoint = %q", sub.Endpoint)
		}
	}
	if s.NumSubscriptions() != 100 {
		t.Errorf("NumSubscriptions = %d", s.NumSubscriptions())
	}
}

func TestSendPollDrains(t *testing.T) {
	s := New("")
	sub := s.Register("https://a.test", "https://a.test/sw.js")
	for i := 0; i < 3; i++ {
		err := s.Send(webpush.Message{Token: sub.Token, Data: json.RawMessage(fmt.Sprintf(`{"i":%d}`, i))})
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Pending(sub.Token); got != 3 {
		t.Fatalf("Pending = %d, want 3", got)
	}
	msgs := s.Poll([]string{sub.Token})
	if len(msgs) != 3 {
		t.Fatalf("Poll returned %d, want 3", len(msgs))
	}
	// Order preserved.
	for i, m := range msgs {
		if want := fmt.Sprintf(`{"i":%d}`, i); string(m.Data) != want {
			t.Errorf("msg %d data = %s, want %s", i, m.Data, want)
		}
	}
	if got := s.Pending(sub.Token); got != 0 {
		t.Errorf("Pending after poll = %d, want 0", got)
	}
	if got := s.TotalSent(sub.Token); got != 3 {
		t.Errorf("TotalSent = %d, want 3", got)
	}
}

func TestSendUnknownToken(t *testing.T) {
	s := New("")
	if err := s.Send(webpush.Message{Token: "nope"}); err == nil {
		t.Error("send to unknown token accepted")
	}
	if msgs := s.Poll([]string{"nope"}); len(msgs) != 0 {
		t.Errorf("poll of unknown token returned %d messages", len(msgs))
	}
}

func TestQueueBounded(t *testing.T) {
	s := New("")
	sub := s.Register("https://a.test", "https://a.test/sw.js")
	for i := 0; i < maxQueue+50; i++ {
		s.Send(webpush.Message{Token: sub.Token, Data: json.RawMessage(`{}`)}) //nolint:errcheck
	}
	if got := s.Pending(sub.Token); got != maxQueue {
		t.Errorf("Pending = %d, want %d", got, maxQueue)
	}
}

func TestQueueWhileOffline(t *testing.T) {
	// The crawler suspends containers; messages must accumulate and be
	// delivered on the next poll (the paper's resume behaviour).
	s := New("")
	sub := s.Register("https://a.test", "https://a.test/sw.js")
	s.Send(webpush.Message{Token: sub.Token, Data: json.RawMessage(`{"n":1}`)}) //nolint:errcheck
	// ... container suspended, no polls ...
	s.Send(webpush.Message{Token: sub.Token, Data: json.RawMessage(`{"n":2}`)}) //nolint:errcheck
	if got := len(s.Poll([]string{sub.Token})); got != 2 {
		t.Errorf("resume poll got %d messages, want 2", got)
	}
}

func TestHTTPAPI(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	s := New("")
	n.Handle(DefaultHost, s)
	client := NewClientWith(n.Client(), "", nil)

	sub, err := client.Register("https://pub.test", "https://pub.test/sw.js")
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	if sub.Token == "" || sub.Endpoint == "" {
		t.Fatalf("incomplete subscription: %+v", sub)
	}
	if sub.Origin != "https://pub.test" {
		t.Errorf("origin = %q", sub.Origin)
	}

	payload := webpush.EncodePayload(webpush.Payload{AdID: "ad-1"})
	if err := client.Send(sub.Endpoint, payload); err != nil {
		t.Fatalf("Send: %v", err)
	}
	msgs, err := client.Poll([]string{sub.Token})
	if err != nil {
		t.Fatalf("Poll: %v", err)
	}
	if len(msgs) != 1 {
		t.Fatalf("Poll returned %d messages", len(msgs))
	}
	p, err := webpush.DecodePayload(msgs[0].Data)
	if err != nil {
		t.Fatal(err)
	}
	if p.AdID != "ad-1" {
		t.Errorf("AdID = %q", p.AdID)
	}
}

func TestHTTPSendUnknownToken404(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	s := New("")
	n.Handle(DefaultHost, s)
	client := NewClientWith(n.Client(), "", nil)
	err := client.Send("https://"+DefaultHost+"/send/bogus", json.RawMessage(`{}`))
	if err == nil {
		t.Error("send to bogus token succeeded over HTTP")
	}
}

func TestConcurrentSendPoll(t *testing.T) {
	s := New("")
	sub := s.Register("https://a.test", "https://a.test/sw.js")
	var wg sync.WaitGroup
	const senders, per = 8, 20
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				s.Send(webpush.Message{Token: sub.Token, Data: json.RawMessage(`{}`)}) //nolint:errcheck
			}
		}()
	}
	got := 0
	var pollWG sync.WaitGroup
	var mu sync.Mutex
	for i := 0; i < 4; i++ {
		pollWG.Add(1)
		go func() {
			defer pollWG.Done()
			for j := 0; j < 50; j++ {
				n := len(s.Poll([]string{sub.Token}))
				mu.Lock()
				got += n
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	pollWG.Wait()
	got += len(s.Poll([]string{sub.Token}))
	if got != senders*per {
		t.Errorf("polled %d messages, want %d", got, senders*per)
	}
}
