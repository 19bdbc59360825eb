package vnet

import (
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pushadminer/internal/chaos"
	"pushadminer/internal/telemetry"
)

// faultyNet serves body at a.test behind a chaos injector with profile
// p, and counts into the returned registry.
func faultyNet(t *testing.T, p chaos.Profile, body string) (*Network, *telemetry.Registry) {
	t.Helper()
	n := newNet(t)
	epoch := time.Date(2019, 9, 1, 0, 0, 0, 0, time.UTC)
	in := chaos.NewInjector(p, func() time.Time { return epoch }, epoch)
	n.SetMiddleware(in.Middleware)
	reg := telemetry.New()
	n.AttachMetrics(reg)
	in.AttachMetrics(reg)
	n.HandleFunc("a.test", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, body) //nolint:errcheck
	})
	return n, reg
}

// TestInjectedResetFailsOneRequest: a reset closes the server end of
// the connection before any response byte, so the request fails once
// (a fresh connection is never retried by the transport) and the
// client counts it as a killed connection, matching the injector's
// count.
func TestInjectedResetFailsOneRequest(t *testing.T) {
	n, reg := faultyNet(t, chaos.Profile{Seed: 1, ResetFraction: 1}, "ok")
	if resp, err := n.Client().Get("https://a.test/"); err == nil {
		resp.Body.Close()
		t.Fatalf("GET under resets succeeded: %s", resp.Status)
	}
	s := reg.Snapshot()
	if got := s.Counters["vnet_client_requests"]; got != 1 {
		t.Errorf("vnet_client_requests = %d, want 1", got)
	}
	if got := s.Families["vnet_client_errors"]; len(got) != 1 || got["conn"] != 1 {
		t.Errorf("vnet_client_errors = %v, want conn:1", got)
	}
	if got := s.Families["chaos_faults"]; len(got) != 1 || got["reset"] != 1 {
		t.Errorf("chaos_faults = %v, want reset:1", got)
	}
}

// TestTruncatedBodyEndsEarly: a truncated response announces the full
// Content-Length, sends half the body and closes the connection, so the
// client reads half and then io.ErrUnexpectedEOF.
func TestTruncatedBodyEndsEarly(t *testing.T) {
	body := strings.Repeat("0123456789", 100)
	n, _ := faultyNet(t, chaos.Profile{Seed: 1, TruncateFraction: 1}, body)
	resp, err := n.Client().Get("https://a.test/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.ContentLength != int64(len(body)) {
		t.Errorf("Content-Length = %d, want %d", resp.ContentLength, len(body))
	}
	got, err := io.ReadAll(resp.Body)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("read error = %v, want io.ErrUnexpectedEOF", err)
	}
	if string(got) != body[:len(body)/2] {
		t.Fatalf("read %d bytes before the error, want the first %d", len(got), len(body)/2)
	}
}

// TestNetworkOpensNoSockets: the network dispatches in process, so
// neither New nor its traffic opens a socket. Linux only: it lists the
// socket:[inode] links under /proc/self/fd.
func TestNetworkOpensNoSockets(t *testing.T) {
	before, err := openSockets()
	if err != nil {
		t.Skipf("cannot list open file descriptors: %v", err)
	}
	n := newNet(t)
	n.HandleFunc("a.test", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok") //nolint:errcheck
	})
	c := n.Client()
	for i := 0; i < 5; i++ {
		if _, body := get(t, c, "https://a.test/"); body != "ok" {
			t.Fatalf("body = %q", body)
		}
	}
	after, err := openSockets()
	if err != nil {
		t.Fatal(err)
	}
	for link := range after {
		if !before[link] {
			t.Errorf("the network opened %s", link)
		}
	}
}

// openSockets returns the process's open sockets as their fd link
// targets ("socket:[inode]").
func openSockets() (map[string]bool, error) {
	const dir = "/proc/self/fd"
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := map[string]bool{}
	for _, e := range ents {
		// An fd can close between the listing and the readlink (the
		// directory's own fd does); skip those.
		if link, err := os.Readlink(filepath.Join(dir, e.Name())); err == nil && strings.HasPrefix(link, "socket:[") {
			out[link] = true
		}
	}
	return out, nil
}
