package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"

	"cmfuzz/internal/campaign"
	"cmfuzz/internal/spec"
)

func writeSpec(path string, spec CampaignSpec) error {
	raw, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return err
	}
	return campaign.WriteFileAtomic(path, raw, 0o644)
}

// readSpec decodes a campaign's spec.json as a submit body is decoded.
// A spec that names a field no campaign has still comes back with its
// id beside the error; an unreadable or torn one comes back with none.
func readSpec(path string) (CampaignSpec, error) {
	f, err := os.Open(path)
	if err != nil {
		return CampaignSpec{}, err
	}
	defer f.Close()
	return spec.Decode(f)
}

// APIHandler returns the fleet's machine API, meant to be mounted on
// the monitor server via monitor.Options.API:
//
//	POST /api/submit   body: CampaignSpec JSON; 202 on accept,
//	                   400 invalid, 409 duplicate id
//	GET  /api/status   {"campaigns": [CampaignStatus, ...]}
//	GET  /api/results?id=X
//	                   final result.json; 404 unknown, 409 not done
//	GET  /api/flight?id=X
//	                   live flight-recorder snapshot; 404 unknown
//	GET  /api/events   Server-Sent Events stream of StreamEvent JSON,
//	                   one `event: <type>` + `data: <json>` per event
func (m *Manager) APIHandler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("/api/submit", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		c, err := spec.Decode(r.Body)
		if err != nil {
			http.Error(w, "bad spec: "+err.Error(), http.StatusBadRequest)
			return
		}
		if err := m.Submit(c); err != nil {
			code := http.StatusBadRequest
			if err == ErrExists {
				code = http.StatusConflict
			}
			http.Error(w, err.Error(), code)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]string{"id": c.ID, "state": StateQueued})
	})

	mux.HandleFunc("/api/status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(map[string]any{"campaigns": m.Status()})
	})

	mux.HandleFunc("/api/results", func(w http.ResponseWriter, r *http.Request) {
		id := r.URL.Query().Get("id")
		raw, err := m.Results(id)
		if err != nil {
			code := http.StatusNotFound
			m.mu.Lock()
			if c, ok := m.campaigns[id]; ok && c.state != StateDone {
				code = http.StatusConflict
			}
			m.mu.Unlock()
			http.Error(w, err.Error(), code)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(raw)
	})

	mux.HandleFunc("/api/flight", func(w http.ResponseWriter, r *http.Request) {
		id := r.URL.Query().Get("id")
		doc, ok := m.Flight(id)
		if !ok {
			http.Error(w, "unknown campaign "+id, http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(doc)
	})

	mux.HandleFunc("/api/events", func(w http.ResponseWriter, r *http.Request) {
		fl, ok := w.(http.Flusher)
		if !ok {
			http.Error(w, "streaming unsupported", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		w.Header().Set("Connection", "keep-alive")
		// Subscribe before the stream reads as open, or an event published
		// right after a client sees the headers is lost.
		ch, cancel := m.events.subscribe()
		defer cancel()
		// An immediate comment line commits the headers so clients see
		// the stream open before the first event lands.
		fmt.Fprint(w, ": cmfuzz fleet event stream\n\n")
		fl.Flush()
		for {
			select {
			case <-r.Context().Done():
				return
			case ev, ok := <-ch:
				if !ok {
					return
				}
				raw, err := json.Marshal(ev)
				if err != nil {
					continue
				}
				fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, raw)
				fl.Flush()
			}
		}
	})

	return mux
}
