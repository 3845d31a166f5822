package obs

import (
	"net"
	"net/http"
	"sync"

	"dilos/internal/sim"
)

// Server is the HTTP face of the plane. Publishers (the simulator's
// publisher daemon, memnoded's wall-clock collector) render pages and
// swap them in under a lock; handlers serve the stored bytes, so a
// scrape never touches live simulator state and never races it.
//
// Endpoints: /metrics (Prometheus text exposition), /healthz (200 ok /
// 503 detail), /statusz (membership, shards, breakers, SLOs),
// /journalz (the control-plane event journal as JSON lines).
type Server struct {
	mu      sync.RWMutex
	metrics []byte
	status  []byte
	journal []byte
	healthy bool
	detail  string

	ln net.Listener
}

// NewServer creates a page server that reports healthy until told
// otherwise.
func NewServer() *Server {
	return &Server{healthy: true, detail: "ok"}
}

// PublishMetrics stores a rendered /metrics page (copied).
func (s *Server) PublishMetrics(b []byte) {
	s.mu.Lock()
	s.metrics = append(s.metrics[:0], b...)
	s.mu.Unlock()
}

// PublishStatus stores a rendered /statusz page (copied).
func (s *Server) PublishStatus(b []byte) {
	s.mu.Lock()
	s.status = append(s.status[:0], b...)
	s.mu.Unlock()
}

// PublishJournal stores a rendered /journalz page (copied).
func (s *Server) PublishJournal(b []byte) {
	s.mu.Lock()
	s.journal = append(s.journal[:0], b...)
	s.mu.Unlock()
}

// SetHealth sets the /healthz verdict.
func (s *Server) SetHealth(ok bool, detail string) {
	s.mu.Lock()
	s.healthy, s.detail = ok, detail
	s.mu.Unlock()
}

// Handler returns the endpoint mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		s.serve(w, "text/plain; version=0.0.4; charset=utf-8", func() []byte { return s.metrics })
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, r *http.Request) {
		s.serve(w, "text/plain; charset=utf-8", func() []byte { return s.status })
	})
	mux.HandleFunc("/journalz", func(w http.ResponseWriter, r *http.Request) {
		s.serve(w, "application/jsonl", func() []byte { return s.journal })
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		s.mu.RLock()
		ok, detail := s.healthy, s.detail
		s.mu.RUnlock()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !ok {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		w.Write([]byte(detail + "\n"))
	})
	return mux
}

func (s *Server) serve(w http.ResponseWriter, ctype string, page func() []byte) {
	s.mu.RLock()
	body := append([]byte(nil), page()...)
	s.mu.RUnlock()
	w.Header().Set("Content-Type", ctype)
	w.Write(body)
}

// ListenAndServe binds addr and serves the endpoints in a background
// goroutine, returning the bound address (so ":0" works in tests).
func (s *Server) ListenAndServe(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	go http.Serve(ln, s.Handler())
	return ln.Addr().String(), nil
}

// Close stops the listener (idempotent; nil-safe before ListenAndServe).
func (s *Server) Close() error {
	if s.ln != nil {
		return s.ln.Close()
	}
	return nil
}

// Plane bundles the pieces a System wires through its stack. Any field
// may be nil: a System with a Plane evaluates what it has and skips the
// rest, and a nil Plane is the plane-off configuration.
type Plane struct {
	// Monitor receives the system's fault-latency observations; the
	// System registers one objective for its pool.
	Monitor *Monitor
	// Journal receives control-plane events (membership transitions,
	// breaker trips, rebalances, steals, SLO alert edges).
	Journal *Journal
	// Sink, when non-nil, receives rendered /metrics, /statusz, and
	// /journalz pages every PublishEvery.
	Sink *Server
	// Objective is the template for registered objectives (Name is
	// overridden per system); zero fields take the Monitor defaults.
	Objective Objective
	// EvalEvery is the SLO evaluation period (default 250µs virtual).
	// Detection latency is bounded below by it.
	EvalEvery sim.Time
	// PublishEvery is the page render period when Sink is set (default
	// 1ms virtual). Rendering takes a full registry snapshot — histogram
	// percentiles included — so it runs at a coarser cadence than
	// evaluation.
	PublishEvery sim.Time
}

// NewPlane builds the standard full plane: monitor + journal, no sink.
func NewPlane() *Plane {
	j := NewJournal(0)
	return &Plane{Monitor: NewMonitor(j), Journal: j}
}
