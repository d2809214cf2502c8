package serve

// Host profiling: the standard net/http/pprof handlers, mounted either
// on the observatory mux (Server.DebugPprof) or on a listener of their
// own (StartDebugPprof, the -pprof flag). Profiles taken through them
// carry the pprof labels set on the execution paths — job_id and
// spec_hash around each job, spec_hash around melody.Execute,
// experiment around Engine.Run — so `go tool pprof -tagfocus` slices a
// capture by job or experiment without any capture store of our own.

import (
	"fmt"
	"log/slog"
	"net"
	"net/http"
	httppprof "net/http/pprof"

	"github.com/moatlab/melody/internal/obs/svclog"
)

// debugPprofHandlers is the one list of /debug/pprof/* routes both
// mounting paths register. The index handler also serves every named
// runtime profile (/debug/pprof/heap, /goroutine, /mutex, ...).
var debugPprofHandlers = []struct {
	pattern string
	handler http.HandlerFunc
}{
	{"/debug/pprof/", httppprof.Index},
	{"/debug/pprof/cmdline", httppprof.Cmdline},
	{"/debug/pprof/profile", httppprof.Profile},
	{"/debug/pprof/symbol", httppprof.Symbol},
	{"/debug/pprof/trace", httppprof.Trace},
}

// mountDebugPprof wires the pprof handlers onto mux through the RED
// middleware (one route label for the whole family, so cardinality
// stays bounded).
func (s *Server) mountDebugPprof(mux *http.ServeMux) {
	for _, h := range debugPprofHandlers {
		mux.Handle(h.pattern, s.wrap("/debug/pprof/", h.handler))
	}
}

// StartDebugPprof serves the pprof handlers on their own addr — the
// -pprof contract, shared by both the run and serve subcommands so the
// flag cannot drift between them. Listening is synchronous: a bad
// address fails here, at startup, not minutes into a run. Prefer
// Server.DebugPprof (same handlers on the observatory mux) when an
// observatory is already listening.
func StartDebugPprof(addr string, log *slog.Logger) (*Running, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("pprof listener: %w", err)
	}
	if log == nil {
		log = svclog.Discard()
	}
	mux := http.NewServeMux()
	for _, h := range debugPprofHandlers {
		mux.Handle(h.pattern, h.handler)
	}
	log.Info("pprof listening", "addr", ln.Addr().String())
	srv := &http.Server{Handler: mux}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Error("pprof listener failed", "addr", ln.Addr().String(), "err", err)
		}
	}()
	return &Running{ln: ln, srv: srv}, nil
}
