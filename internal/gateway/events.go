package gateway

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
)

// handleEvents streams a job's event log as Server-Sent Events: a full
// replay from ?from= (default 0) followed by live events until the job
// reaches a terminal state or the client goes away. Event types map to
// SSE event names; payloads are the Event JSON.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	from := 0
	if q := r.URL.Query().Get("from"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, "bad from")
			return
		}
		from = n
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	for {
		// Read the state BEFORE the log: a terminal transition appends
		// its state event first, so terminal-then-empty-fetch proves the
		// log is fully shipped (the other order would race and drop the
		// final events).
		term := j.State().Terminal()
		events, more := j.Events(from)
		for _, e := range events {
			if err := writeSSE(w, e); err != nil {
				return
			}
			from = e.Seq + 1
		}
		fl.Flush()
		if len(events) == 0 {
			if term {
				return
			}
			select {
			case <-more:
			case <-r.Context().Done():
				return
			}
		}
	}
}

// writeSSE serializes one event in SSE framing: the event name is the
// job event type, the data line its JSON.
func writeSSE(w http.ResponseWriter, e Event) error {
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Type, data)
	return err
}
