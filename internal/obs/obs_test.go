package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCounterConcurrentSum: adds from concurrent goroutines (queries of
// one Engine) all land in the one atomic (run under -race in CI).
func TestCounterConcurrentSum(t *testing.T) {
	r := New()
	c := r.Counter("rows")
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	c.Add(5)
	if got := c.Value(); got != 8005 {
		t.Fatalf("counter = %d, want 8005", got)
	}
	if r.Counter("rows") != c {
		t.Fatal("Counter must return the same instance per name")
	}
}

func TestNilRegistryIsNoop(t *testing.T) {
	var r *Registry
	r.Counter("x").Add(1)
	r.Gauge("g").Add(1)
	r.Gauge("g").Set(9)
	r.Histogram("h").Observe(0.1)
	r.Histogram("h").ObserveSince(time.Now())
	s := r.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("lat", 0.01, 0.1, 1)
	for _, v := range []float64{0.001, 0.05, 0.5, 5, 0.02} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["lat"]
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	want := []int64{1, 2, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.SumSec < 5.5 || s.SumSec > 5.6 {
		t.Fatalf("sum = %g, want ≈5.571", s.SumSec)
	}
}

// TestMetricsAllocs pins the hot-path cost of the metrics layer: counter
// and gauge increments and histogram observations must not allocate —
// with a live registry or with a nil one.
func TestMetricsAllocs(t *testing.T) {
	r := New()
	c := r.Counter("hot")
	g := r.Gauge("inflight")
	h := r.Histogram("lat")
	if n := testing.AllocsPerRun(100, func() {
		c.Add(1)
		g.Add(1)
		h.Observe(0.003)
	}); n != 0 {
		t.Fatalf("live metrics hot path allocates %v per op, want 0", n)
	}
	var nilReg *Registry
	nc, ng, nh := nilReg.Counter("x"), nilReg.Gauge("x"), nilReg.Histogram("x")
	if n := testing.AllocsPerRun(100, func() {
		nc.Add(1)
		ng.Add(1)
		nh.Observe(0.003)
	}); n != 0 {
		t.Fatalf("nil metrics hot path allocates %v per op, want 0", n)
	}
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	r := New()
	r.Counter("b").Add(2)
	r.Counter("a").Add(1)
	r.Gauge("g").Set(7)
	r.Histogram("h", 0.1, 1).Observe(0.05)
	var b1, b2 strings.Builder
	if err := r.Snapshot().WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r.Snapshot().WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatal("snapshot JSON must be deterministic")
	}
	var parsed map[string]any
	if err := json.Unmarshal([]byte(b1.String()), &parsed); err != nil {
		t.Fatalf("snapshot JSON invalid: %v\n%s", err, b1.String())
	}
	if !strings.Contains(b1.String(), `"a": 1`) || !strings.Contains(b1.String(), `"b": 2`) {
		t.Fatalf("missing counters in %s", b1.String())
	}
}

func TestTraceRenderAndFingerprint(t *testing.T) {
	tr := NewTrace("Q6", "lazy", 4)
	ans := tr.Root.Child("answer")
	ans.Int("rows", 42).LooseInt("batches", 3)
	ans.SetDur(1500 * time.Microsecond)
	scan := ans.Child("scan Item")
	scan.Int("rows_out", 100)
	conf := tr.Root.Child("conf[sort+scan]")
	conf.Int("distinct", 7).Str("sig", "{a}{b}")

	full := tr.Render(true)
	for _, want := range []string{"trace: Q6 [lazy] workers=4", "answer rows=42 batches=3 (0.0015s)", "  scan Item rows_out=100", "conf[sort+scan] distinct=7 sig={a}{b}"} {
		if !strings.Contains(full, want) {
			t.Fatalf("full render missing %q:\n%s", want, full)
		}
	}
	fp := tr.Fingerprint()
	if strings.Contains(fp, "batches") || strings.Contains(fp, "workers") || strings.Contains(fp, "0.0015") {
		t.Fatalf("fingerprint leaks loose data:\n%s", fp)
	}
	if !strings.Contains(fp, "rows=42") || !strings.Contains(fp, "sig={a}{b}") {
		t.Fatalf("fingerprint missing structural attrs:\n%s", fp)
	}

	// Nil spans are safe everywhere.
	var nilSpan *Span
	nilSpan.Child("x").Int("k", 1).LooseStr("s", "v")
	nilSpan.SetDur(time.Second)
	var nilTrace *Trace
	if nilTrace.Render(true) != "" || nilTrace.Fingerprint() != "" {
		t.Fatal("nil trace must render empty")
	}
}

func TestTraceJSONSeparatesLoose(t *testing.T) {
	tr := NewTrace("Q6", "obdd", 1)
	s := tr.Root.Child("conf[obdd]")
	s.Int("nodes", 12).LooseInt("spills", 1)
	raw, err := tr.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Query string `json:"query"`
		Root  struct {
			Children []struct {
				Name  string            `json:"name"`
				Attrs map[string]string `json:"attrs"`
				Loose map[string]string `json:"loose"`
			} `json:"children"`
		} `json:"root"`
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("%v\n%s", err, raw)
	}
	if got.Query != "Q6" || len(got.Root.Children) != 1 {
		t.Fatalf("bad trace JSON: %s", raw)
	}
	c := got.Root.Children[0]
	if c.Attrs["nodes"] != "12" || c.Loose["spills"] != "1" {
		t.Fatalf("attrs not separated: %s", raw)
	}
}

func TestHandlerEndpoints(t *testing.T) {
	r := New()
	r.Counter("queries_total").Add(3)
	srv, addr, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + addr.String()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, `"status": "ok"`) {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	code, body := get("/metrics")
	if code != 200 || !strings.Contains(body, `"queries_total": 3`) {
		t.Fatalf("/metrics = %d %q", code, body)
	}
	var parsed map[string]any
	if err := json.Unmarshal([]byte(body), &parsed); err != nil {
		t.Fatalf("/metrics not JSON: %v", err)
	}
	if !strings.Contains(body, "runtime_goroutines") {
		t.Fatalf("/metrics missing runtime stats: %s", body)
	}
	if code, body := get("/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ = %d", code)
	}
	if code, _ := get("/debug/vars"); code != 200 {
		t.Fatalf("/debug/vars = %d", code)
	}
	if code, _ := get("/nope"); code != 404 {
		t.Fatalf("unknown path = %d, want 404", code)
	}
}

func TestServeBadAddr(t *testing.T) {
	if _, _, err := Serve("256.0.0.1:http", nil); err == nil {
		t.Fatal("want error for bad listen address")
	}
}

func ExampleTrace() {
	tr := NewTrace("Q18", "eager", 1)
	tr.Root.Child("scan Ord").Int("rows_out", 4)
	fmt.Println(tr.Fingerprint())
	// Output:
	// trace: Q18 [eager]
	// scan Ord rows_out=4
}
