// Command wpnstat renders a live one-screen dashboard of a running
// crawl or mine by polling a status endpoint of a -debug-addr server:
// /fleetz (the default — wpncrawl's crawl status: containers, dead
// containers, queue depth, messages collected, records, events and
// circuit-breaker posture) or /miningz (mining
// pipeline progress — current stage, blocks clustered, cut-sweep
// heights scored, pair counts and sweep memo hits from pushadminer).
//
// Usage:
//
//	wpnstat -addr 127.0.0.1:6060 [-endpoint fleetz|miningz] [-interval D] [-once] [-json]
//
// -once prints a single snapshot and exits (handy for scripts); -json
// dumps the raw endpoint JSON instead of the text dashboard. Without
// -once the dashboard refreshes in place every -interval until the
// watched run reports done or the server goes away.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"time"

	"pushadminer/internal/core"
	"pushadminer/internal/fleet"
)

// fleetzPayload mirrors the /fleetz JSON envelope.
type fleetzPayload struct {
	Active bool               `json:"active"`
	Fleet  *fleet.FleetStatus `json:"fleet"`
}

// miningzPayload mirrors the /miningz JSON envelope.
type miningzPayload struct {
	Active bool               `json:"active"`
	Mining *core.MiningStatus `json:"mining"`
}

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:6060", "debug server address")
		endpoint = flag.String("endpoint", "fleetz", "status endpoint to render: fleetz or miningz")
		interval = flag.Duration("interval", 2*time.Second, "poll period")
		once     = flag.Bool("once", false, "print one snapshot and exit")
		raw      = flag.Bool("json", false, "print the raw endpoint JSON instead of the dashboard")
	)
	flag.Parse()
	if *endpoint != "fleetz" && *endpoint != "miningz" {
		log.Fatalf("wpnstat: bad -endpoint %q: want fleetz or miningz", *endpoint)
	}

	url := "http://" + *addr + "/" + *endpoint
	client := &http.Client{Timeout: 5 * time.Second}
	for {
		body, err := fetch(client, url)
		if err != nil {
			log.Fatalf("wpnstat: %v", err)
		}
		if *raw {
			os.Stdout.Write(body)
			if len(body) > 0 && body[len(body)-1] != '\n' {
				fmt.Println()
			}
			if *once {
				return
			}
			time.Sleep(*interval)
			continue
		}
		dashboard, done, err := render(*endpoint, body)
		if err != nil {
			log.Fatalf("wpnstat: parse /%s: %v", *endpoint, err)
		}
		if dashboard == "" {
			fmt.Printf("no %s status active (run not started, or observation is off)\n", *endpoint)
			if *once {
				return
			}
			time.Sleep(*interval)
			continue
		}
		if !*once {
			// Redraw in place: clear screen, home cursor.
			fmt.Print("\033[2J\033[H")
		}
		fmt.Print(dashboard)
		if *once || done {
			return
		}
		time.Sleep(*interval)
	}
}

// render parses one endpoint response into its text dashboard. An empty
// dashboard means no status is being published yet.
func render(endpoint string, body []byte) (dashboard string, done bool, err error) {
	switch endpoint {
	case "miningz":
		var p miningzPayload
		if err := json.Unmarshal(body, &p); err != nil {
			return "", false, err
		}
		if !p.Active || p.Mining == nil {
			return "", false, nil
		}
		return p.Mining.String(), p.Mining.Done, nil
	default:
		var p fleetzPayload
		if err := json.Unmarshal(body, &p); err != nil {
			return "", false, err
		}
		if !p.Active || p.Fleet == nil {
			return "", false, nil
		}
		return p.Fleet.String(), p.Fleet.Done, nil
	}
}

func fetch(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", url, resp.Status)
	}
	return body, nil
}
