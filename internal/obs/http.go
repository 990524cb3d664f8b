package obs

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"time"
)

// Handler returns an HTTP mux exposing the registry and the process:
//
//	/metrics       registry snapshot plus runtime_* stats, as JSON
//	/healthz       {"status":"ok","uptime_sec":...}
//	/debug/pprof/  the standard pprof index (profile, heap, trace, ...)
//	/debug/vars    expvar
//
// reg may be nil (metrics report empty). The handler is safe for
// concurrent use; wire it behind an opt-in flag (sproutq -listen).
func Handler(reg *Registry) http.Handler {
	start := time.Now()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		s := reg.Snapshot()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.Gauges["runtime_goroutines"] = int64(runtime.NumGoroutine())
		s.Gauges["runtime_heap_alloc_bytes"] = int64(ms.HeapAlloc)
		s.Counters["runtime_num_gc"] = int64(ms.NumGC)
		s.Counters["runtime_total_alloc_bytes"] = int64(ms.TotalAlloc)
		_ = s.WriteJSON(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"status\": \"ok\", \"uptime_sec\": %.1f}\n", time.Since(start).Seconds())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "sprout obs: /metrics /healthz /debug/pprof/ /debug/vars\n")
	})
	return mux
}

// Serve starts Handler on addr in a background goroutine and returns
// the server (for Shutdown) and the bound address (useful with ":0").
func Serve(addr string, reg *Registry) (*http.Server, net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: Handler(reg)}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr(), nil
}
