package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"rowhammer/internal/artifact"
	"rowhammer/internal/store"
)

// Server is the HTTP API over a campaign manager and its artifact
// store.
//
//	POST /v1/campaigns            submit a Spec; 202 + status (idempotent)
//	GET  /v1/campaigns            list campaign statuses
//	GET  /v1/campaigns/{id}       one campaign's status
//	GET  /v1/campaigns/{id}/events  status stream over SSE until terminal
//	GET  /v1/artifacts            query the index (experiment, kind, mfr, seed, temp)
//	GET  /v1/artifacts/{id}       raw artifact payload, byte-identical to ingest
//	GET  /v1/artifacts/{id}/meta  the index entry
//	GET  /v1/artifacts/{id}/rows  filtered/sorted rows (prefix=, label=k:v)
//	GET  /healthz                 liveness + store size
type Server struct {
	mgr *Manager
	st  *store.Store
	mux *http.ServeMux

	// maxSpecBytes bounds the POST /v1/campaigns request body; a spec
	// is a few hundred bytes of JSON, so anything near the limit is
	// hostile or broken. DefaultMaxSpecBytes unless SetMaxSpecBytes
	// says otherwise.
	maxSpecBytes int64
}

// DefaultMaxSpecBytes bounds a submitted campaign spec (1 MiB).
const DefaultMaxSpecBytes = 1 << 20

// New builds the HTTP API over mgr and its store.
func New(mgr *Manager, st *store.Store) *Server {
	s := &Server{mgr: mgr, st: st, mux: http.NewServeMux(), maxSpecBytes: DefaultMaxSpecBytes}
	s.mux.HandleFunc("POST /v1/campaigns", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/campaigns", s.handleCampaigns)
	s.mux.HandleFunc("GET /v1/campaigns/{id}", s.handleCampaign)
	s.mux.HandleFunc("GET /v1/campaigns/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/artifacts", s.handleArtifacts)
	s.mux.HandleFunc("GET /v1/artifacts/{id}", s.handleArtifact)
	s.mux.HandleFunc("GET /v1/artifacts/{id}/meta", s.handleArtifactMeta)
	s.mux.HandleFunc("GET /v1/artifacts/{id}/rows", s.handleArtifactRows)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// Handler returns the routed handler.
func (s *Server) Handler() http.Handler { return s.mux }

// SetMaxSpecBytes overrides the submit body bound (<= 0 restores the
// default).
func (s *Server) SetMaxSpecBytes(n int64) {
	if n <= 0 {
		n = DefaultMaxSpecBytes
	}
	s.maxSpecBytes = n
}

// Mount registers additional routes — e.g. the shard lease service
// (leasesvc.Service.Register) — on the server's mux, so rhserved
// serves campaigns, artifacts and leases from one listener.
func (s *Server) Mount(register func(mux *http.ServeMux)) { register(s.mux) }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeSpec(http.MaxBytesReader(w, r.Body, s.maxSpecBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("spec exceeds %d bytes", s.maxSpecBytes))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding spec: %w", err))
		return
	}
	st, existing, err := s.mgr.Submit(spec)
	var qerr *QueueFullError
	switch {
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case errors.As(err, &qerr):
		// Backpressure, not rejection: the queue is full right now.
		// Retry-After is a heuristic (campaigns vary in length), but
		// it keeps well-behaved clients from hammering a full queue.
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusTooManyRequests, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	code := http.StatusAccepted
	if existing {
		code = http.StatusOK
	}
	writeJSON(w, code, struct {
		Status
		Existing bool `json:"existing"`
	}{st, existing})
}

func (s *Server) handleCampaigns(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.mgr.Statuses())
}

func (s *Server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	st, ok := s.mgr.Status(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown campaign %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleEvents streams status snapshots as server-sent events: one
// `event: status` per change, ending after the terminal status.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	ch, cancel, ok := s.mgr.Subscribe(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown campaign %q", r.PathValue("id")))
		return
	}
	defer cancel()
	flusher, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	for {
		select {
		case st, open := <-ch:
			if !open {
				return
			}
			payload, err := json.Marshal(st)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "event: status\ndata: %s\n\n", payload); err != nil {
				return
			}
			if canFlush {
				flusher.Flush()
			}
		case <-r.Context().Done():
			return
		}
	}
}

// parseQuery maps URL query parameters onto a store query.
func parseQuery(r *http.Request) (store.Query, error) {
	q := store.Query{
		Experiment: r.URL.Query().Get("experiment"),
		Kind:       r.URL.Query().Get("kind"),
		Mfr:        r.URL.Query().Get("mfr"),
	}
	if v := r.URL.Query().Get("seed"); v != "" {
		seed, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return q, fmt.Errorf("bad seed %q: %w", v, err)
		}
		q.Seed = &seed
	}
	if v := r.URL.Query().Get("temp"); v != "" {
		temp, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return q, fmt.Errorf("bad temp %q: %w", v, err)
		}
		q.Temp = &temp
	}
	return q, nil
}

func (s *Server) handleArtifacts(w http.ResponseWriter, r *http.Request) {
	q, err := parseQuery(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	metas := s.st.List(q)
	if metas == nil {
		metas = []store.Meta{}
	}
	writeJSON(w, http.StatusOK, metas)
}

// handleArtifact serves the stored payload verbatim — the bytes are
// identical to what `rhchar -format json` (experiment kinds) or
// `rhfleet -summary` (measurement kinds) writes for the same spec.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	_, payload, err := s.st.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, statusForStoreErr(err), err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(payload)
}

func (s *Server) handleArtifactMeta(w http.ResponseWriter, r *http.Request) {
	meta, _, err := s.st.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, statusForStoreErr(err), err)
		return
	}
	writeJSON(w, http.StatusOK, meta)
}

// handleArtifactRows decodes the stored artifact and serves its rows
// through the shared artifact query helpers: prefix= filters on the
// row-key prefix, label=name:value on a label, and the result is
// key-sorted for stable pagination-free reads.
func (s *Server) handleArtifactRows(w http.ResponseWriter, r *http.Request) {
	_, payload, err := s.st.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, statusForStoreErr(err), err)
		return
	}
	a, err := artifact.Decode(payload)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, fmt.Errorf("artifact %s is not decodable: %w", r.PathValue("id"), err))
		return
	}
	rows := a.Rows
	if prefix := r.URL.Query().Get("prefix"); prefix != "" {
		rows = artifact.Filter(rows, artifact.KeyPrefix(prefix))
	}
	if label := r.URL.Query().Get("label"); label != "" {
		name, value, ok := cutLabel(label)
		if !ok {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad label filter %q (want name:value)", label))
			return
		}
		rows = artifact.Filter(rows, artifact.HasLabel(name, value))
	}
	artifact.SortRowsByKey(rows)
	if rows == nil {
		rows = []artifact.Row{}
	}
	writeJSON(w, http.StatusOK, rows)
}

func cutLabel(s string) (name, value string, ok bool) {
	for i := 0; i < len(s); i++ {
		if s[i] == ':' {
			return s[:i], s[i+1:], true
		}
	}
	return "", "", false
}

// handleHealthz reports liveness and store size. Once the daemon
// starts draining it answers 503 with "draining": true — readiness,
// not liveness: the process is healthy but should receive no new
// traffic, which is exactly what load-balancer health checks consume.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.mgr.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"ok": false, "draining": true, "artifacts": s.st.Len(),
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "artifacts": s.st.Len()})
}

func statusForStoreErr(err error) int {
	if errors.Is(err, store.ErrNotFound) {
		return http.StatusNotFound
	}
	return http.StatusInternalServerError
}
