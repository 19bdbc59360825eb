// Quickstart reproduces the paper's Figure 1 motivating example end to
// end on the simulated substrate: a website requests notification
// permission, the instrumented browser auto-grants it and registers the
// site's service worker, a push arrives warning "Your payment info has
// been leaked", the browser auto-clicks it, and the click lands on a
// tech-support scam page — with every step visible in the
// instrumentation log.
//
// Unlike the other examples, this one assembles the substrate by hand
// (virtual network, push service, service worker, browser) to show the
// building blocks beneath pushadminer.RunStudy.
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"time"

	"pushadminer/internal/browser"
	"pushadminer/internal/fcm"
	"pushadminer/internal/page"
	"pushadminer/internal/serviceworker"
	"pushadminer/internal/simclock"
	"pushadminer/internal/telemetry"
	"pushadminer/internal/vnet"
	"pushadminer/internal/webpush"
)

func main() {
	// A virtual internet (real net/http over in-process connections)
	// and an FCM-style push service.
	net := vnet.New()
	defer net.Close()
	push := fcm.New("")
	net.Handle(fcm.DefaultHost, push)
	clock := simclock.NewSimulated(time.Date(2019, 9, 1, 12, 0, 0, 0, time.UTC))

	// The publisher: aurolog.ru from the paper's motivating example. It
	// asks for notification permission and registers its own service
	// worker (default behaviour: show the pushed payload, open its
	// target on click).
	doc := &page.Doc{
		Title:                "aurolog.ru",
		Content:              "assorted blog spam",
		RequestsNotification: true,
		SWURL:                "https://aurolog.ru/sw.js",
		SubscribeURL:         "https://aurolog.ru/subscribe",
	}
	sw := &serviceworker.Script{URL: "https://aurolog.ru/sw.js"}
	tokens := make(chan string, 1)
	net.HandleFunc("aurolog.ru", func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/":
			w.Header().Set("Content-Type", page.ContentType)
			w.Write(doc.Encode()) //nolint:errcheck
		case "/sw.js":
			w.Header().Set("Content-Type", "application/javascript")
			w.Write(sw.Source()) //nolint:errcheck
		case "/subscribe":
			var sub struct {
				Token string `json:"token"`
			}
			if err := decodeJSON(r, &sub); err == nil {
				select {
				case tokens <- sub.Token:
				default:
				}
			}
			w.WriteHeader(http.StatusCreated)
		default:
			http.NotFound(w, r)
		}
	})

	// The scam landing infrastructure: a redirector and the tech
	// support scam page the paper screenshotted.
	net.HandleFunc("go-fix-alert.icu", func(w http.ResponseWriter, r *http.Request) {
		http.Redirect(w, r, "https://secure-helpdesk99.xyz/alert/support-case.html?case=4417", http.StatusFound)
	})
	net.HandleFunc("secure-helpdesk99.xyz", func(w http.ResponseWriter, r *http.Request) {
		scam := &page.Doc{
			Title:   "Microsoft Support Alert",
			Content: "your computer has been blocked call the toll free number 1-888-555-0199 now",
		}
		w.Header().Set("Content-Type", page.ContentType)
		w.Write(scam.Encode()) //nolint:errcheck
	})

	// The instrumented browser: auto-grant permissions, auto-click
	// notifications after 3 seconds, trace every event.
	tracer := telemetry.NewTracer(nil)
	br := browser.New(browser.Config{
		Clock:  clock,
		Client: net.ClientNoRedirect(),
		Tracer: tracer,
	})

	fmt.Println("== Step 1: visit the page; permission auto-granted; SW registered")
	visit, err := br.Visit("https://aurolog.ru/")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   permission requested=%v granted=%v token=%s\n\n",
		visit.RequestedPermission, visit.Granted, visit.Registration.Sub.Token)

	fmt.Println("== Step 2: the operator pushes the malicious notification")
	token := <-tokens
	payload := webpush.EncodePayload(webpush.Payload{
		Notification: &webpush.Notification{
			Title:     "Your payment info has been leaked",
			Body:      "Immediate action required. Click to secure your device now",
			TargetURL: "https://go-fix-alert.icu/c?x=91",
		},
	})
	if err := push.Send(webpush.Message{Token: token, Data: payload}); err != nil {
		log.Fatal(err)
	}
	if _, err := br.PumpPush(""); err != nil {
		log.Fatal(err)
	}
	n := br.Notifications()[0]
	fmt.Printf("   notification displayed: %q / %q\n\n", n.Notification.Title, n.Notification.Body)

	fmt.Println("== Step 3: the instrumented auto-click fires and the browser follows the redirect chain")
	clock.Advance(5 * time.Second)
	outcomes := br.ProcessClicks()
	nav := outcomes[0].Navigation
	for i, hop := range nav.RedirectChain {
		fmt.Printf("   hop %d: %s\n", i+1, hop)
	}
	fmt.Printf("   landing page: %q (%s)\n\n", nav.Title, nav.FinalURL)

	fmt.Println("== Instrumentation log (the data PushAdMiner mines):")
	for _, sp := range tracer.Spans() {
		fmt.Printf("   %s %-22s %v\n", sp.Start.Format("15:04:05"), sp.Name, sp.Attrs)
	}
}

func decodeJSON(r *http.Request, v interface{}) error {
	defer r.Body.Close()
	return json.NewDecoder(r.Body).Decode(v)
}
