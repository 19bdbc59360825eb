package vnet

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"
)

func TestMiddlewareWrapsEveryHost(t *testing.T) {
	n := New()
	defer n.Close()
	n.HandleFunc("before.test", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "inner")
	})
	n.SetMiddleware(func(host string, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("X-Wrapped", host)
			h.ServeHTTP(w, r)
		})
	})
	n.HandleFunc("after.test", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "inner")
	})

	client := n.Client()
	for _, host := range []string{"before.test", "after.test"} {
		resp, err := client.Get("http://" + host + "/")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.Header.Get("X-Wrapped") != host || string(body) != "inner" {
			t.Fatalf("%s: wrapped=%q body=%q", host, resp.Header.Get("X-Wrapped"), body)
		}
	}
}

func TestRequestCountsSnapshotUnderLoad(t *testing.T) {
	n := New()
	defer n.Close()
	n.HandleFunc("a.test", func(w http.ResponseWriter, r *http.Request) {})
	n.HandleFunc("b.test", func(w http.ResponseWriter, r *http.Request) {})

	const perHost = 25
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := n.Client()
			for j := 0; j < perHost; j++ {
				for _, h := range []string{"a.test", "b.test"} {
					resp, err := client.Get("http://" + h + "/")
					if err == nil {
						resp.Body.Close()
					}
				}
				// Snapshot concurrently with traffic; the race detector
				// checks safety, the final counts check completeness.
				_ = n.RequestCounts()
			}
		}()
	}
	wg.Wait()
	counts := n.RequestCounts()
	if counts["a.test"] != 4*perHost || counts["b.test"] != 4*perHost {
		t.Fatalf("counts = %v, want %d each", counts, 4*perHost)
	}
	counts["a.test"] = -1 // must be a copy
	if n.RequestCounts()["a.test"] == -1 {
		t.Fatal("RequestCounts returned internal map, not a snapshot")
	}
}

func TestCloseDrainsInflightRequests(t *testing.T) {
	n := New()
	started := make(chan struct{})
	var finished bool
	n.HandleFunc("slow.test", func(w http.ResponseWriter, r *http.Request) {
		close(started)
		time.Sleep(150 * time.Millisecond)
		finished = true
		fmt.Fprint(w, "done")
	})

	type result struct {
		body string
		err  error
	}
	resCh := make(chan result, 1)
	go func() {
		resp, err := n.Client().Get("http://slow.test/")
		if err != nil {
			resCh <- result{err: err}
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		resCh <- result{body: string(body)}
	}()

	<-started
	if err := n.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if !finished {
		t.Fatal("Close returned before the in-flight handler finished")
	}
	r := <-resCh
	if r.err != nil || r.body != "done" {
		t.Fatalf("in-flight request: body=%q err=%v", r.body, r.err)
	}
}
