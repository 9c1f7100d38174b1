package fleet

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"cmfuzz/internal/monitor"
	"cmfuzz/internal/telemetry/metrics"
)

func get(t *testing.T, url string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

// TestAPIMountAndFleetMetrics pins the serve-mode wiring: a handler
// passed via Options.API answers under /api/ on the same listener as
// the monitor endpoints, and collectCampaigns exposes the campaign
// table on /metrics.
func TestAPIMountAndFleetMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	collectCampaigns(reg, func() []CampaignStatus {
		return []CampaignStatus{
			{ID: "dns-a", Subject: "DNS", State: StateRunning, Clock: 450, Horizon: 1800, Edges: 900, Execs: 451, Slices: 3, Reward: 1.5, Workers: 2},
			{ID: "mqtt-b", Subject: "MQTT", State: StateQueued, Horizon: 900},
			// A done campaign as a restarted manager recovers it from disk:
			// no slices this lifetime, but final figures intact — the
			// gauges must reflect them, not zeros.
			{ID: "coap-c", Subject: "CoAP", State: StateDone, Clock: 900, Horizon: 900, Edges: 1200, Execs: 2000},
		}
	})
	api := http.NewServeMux()
	api.HandleFunc("/api/ping", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("pong"))
	})
	s, err := monitor.Start("127.0.0.1:0", monitor.Options{Registry: reg, API: api})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if code, _, body := get(t, s.URL()+"/api/ping"); code != 200 || body != "pong" {
		t.Fatalf("/api/ping = %d %q", code, body)
	}
	_, _, metricsBody := get(t, s.URL()+"/metrics")
	if _, err := metrics.Lint(strings.NewReader(metricsBody)); err != nil {
		t.Fatalf("/metrics fails strict lint: %v\n%s", err, metricsBody)
	}
	for _, want := range []string{
		`cmfuzz_campaigns{state="running"} 1`,
		`cmfuzz_campaigns{state="queued"} 1`,
		`cmfuzz_campaigns{state="done"} 1`,
		`cmfuzz_campaign_edges{campaign="dns-a",subject="DNS"} 900`,
		`cmfuzz_campaign_slices{campaign="dns-a",subject="DNS"} 3`,
		`cmfuzz_campaign_workers{campaign="dns-a",subject="DNS"} 2`,
		`cmfuzz_campaign_workers{campaign="mqtt-b",subject="MQTT"} 0`,
		`cmfuzz_bandit_reward{campaign="dns-a",subject="DNS"} 1.5`,
		`cmfuzz_campaign_horizon_seconds{campaign="mqtt-b",subject="MQTT"} 900`,
		`cmfuzz_campaign_edges{campaign="coap-c",subject="CoAP"} 1200`,
		`cmfuzz_campaign_execs{campaign="coap-c",subject="CoAP"} 2000`,
	} {
		if !strings.Contains(metricsBody, want) {
			t.Errorf("/metrics missing %q:\n%s", want, metricsBody)
		}
	}
	// The status endpoint must keep working with the API mounted.
	if code, _, _ := get(t, s.URL()+"/status"); code != 200 {
		t.Fatalf("/status = %d", code)
	}
}
