package loadgen

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"time"
)

// Recorder captures incoming /v1/run traffic as a JSONL session log in
// the same schema Plan emits and replay consumes: capture and replay are
// one format. graphd wires it in with -record.
type Recorder struct {
	mu    sync.Mutex
	w     io.Writer
	enc   *json.Encoder
	epoch time.Time // first recorded arrival; its entry gets offset 0
	n     int64
}

// NewRecorder returns a recorder appending JSONL entries to w. The
// caller owns w's lifetime (and any underlying file's Close).
func NewRecorder(w io.Writer) *Recorder {
	return &Recorder{w: w, enc: json.NewEncoder(w)}
}

// Count returns how many requests have been recorded.
func (rec *Recorder) Count() int64 {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return rec.n
}

// record appends one entry. Offsets are relative to the first recorded
// arrival so a replayed session starts immediately.
func (rec *Recorder) record(method, path string, body []byte) {
	compact := &bytes.Buffer{}
	if err := json.Compact(compact, body); err != nil {
		// Not JSON; record verbatim as a JSON string so the line stays
		// parseable and replay reissues the original bytes' content.
		raw, _ := json.Marshal(string(body))
		compact = bytes.NewBuffer(raw)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	// Stamped under the lock: entries are written in lock order, so a
	// timestamp taken before it could land after a later one and make the
	// session's offsets go backwards.
	now := time.Now()
	if rec.n == 0 {
		rec.epoch = now
	}
	e := Entry{
		Offset: now.Sub(rec.epoch).Microseconds(),
		Method: method,
		Path:   path,
		Body:   json.RawMessage(compact.Bytes()),
	}
	_ = rec.enc.Encode(&e) // best-effort capture; serving must not fail on a full disk
	rec.n++
}

// Middleware wraps next so every POST /v1/run body is recorded before
// the handler consumes it. Other routes pass through untouched.
func (rec *Recorder) Middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/run" {
			body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
			if err == nil {
				rec.record(r.Method, r.URL.Path, body)
				r.Body = io.NopCloser(bytes.NewReader(body))
			}
		}
		next.ServeHTTP(w, r)
	})
}
