package analyzers_test

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// The meta-tests run the real cmd/sproutvet binary through the real
// `go vet -vettool` protocol:
//
//   - TestSproutvetRepoClean keeps the tree lint-clean by construction —
//     any committed violation (or undocumented allow directive) fails here
//     before it fails in CI.
//   - TestSproutvetCatchesReintroducedViolations proves the wiring has
//     teeth: overlaying a sort.Slice call or an unseeded rand.Intn into
//     internal/prob makes the same invocation fail.

var (
	buildOnce sync.Once
	buildBin  string
	buildErr  error
)

// buildSproutvet builds cmd/sproutvet once per test process.
func buildSproutvet(t *testing.T) (bin, root string) {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "sproutvet")
		if err != nil {
			buildErr = err
			return
		}
		buildBin = filepath.Join(dir, "sproutvet")
		cmd := exec.Command("go", "build", "-o", buildBin, "./cmd/sproutvet")
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			buildErr = err
			buildBin = string(out)
		}
	})
	if buildErr != nil {
		t.Fatalf("building sproutvet: %v\n%s", buildErr, buildBin)
	}
	return buildBin, root
}

func runVet(t *testing.T, root, bin string, extra []string, pkgs ...string) (string, error) {
	t.Helper()
	args := append([]string{"vet", "-vettool=" + bin}, extra...)
	args = append(args, pkgs...)
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	return string(out), err
}

func TestSproutvetRepoClean(t *testing.T) {
	bin, root := buildSproutvet(t)
	out, err := runVet(t, root, bin, nil, "./...")
	if err != nil {
		t.Fatalf("sproutvet reports diagnostics on the tree (fix them or add a justified //sproutvet:allow):\n%s", out)
	}
}

func TestSproutvetCatchesReintroducedViolations(t *testing.T) {
	bin, root := buildSproutvet(t)
	cases := []struct {
		name    string
		pkg     string
		file    string
		src     string
		wantMsg string
	}{
		{
			name: "sort.Slice in internal/prob",
			pkg:  "./internal/prob",
			file: filepath.Join(root, "internal", "prob", "zz_injected.go"),
			src: "package prob\n\nimport \"sort\"\n\n" +
				"func injectedSort(xs []int) { sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] }) }\n",
			wantMsg: "sortslice",
		},
		{
			name: "unseeded rand.Intn in internal/prob",
			pkg:  "./internal/prob",
			file: filepath.Join(root, "internal", "prob", "zz_injected.go"),
			src: "package prob\n\nimport \"math/rand\"\n\n" +
				"func injectedRand() int { return rand.Intn(3) }\n",
			wantMsg: "detrand",
		},
		{
			name: "retained batch tuple in internal/engine",
			pkg:  "./internal/engine",
			file: filepath.Join(root, "internal", "engine", "zz_injected.go"),
			src: "package engine\n\nimport \"repro/internal/table\"\n\n" +
				"func injectedRetain(op Operator) ([]table.Tuple, error) {\n" +
				"\tbuf := make([]table.Tuple, BatchSize)\n" +
				"\tvar out []table.Tuple\n" +
				"\tfor {\n" +
				"\t\tn, err := op.NextBatch(buf)\n" +
				"\t\tif err != nil || n == 0 {\n" +
				"\t\t\treturn out, err\n" +
				"\t\t}\n" +
				"\t\tfor _, t := range buf[:n] {\n" +
				"\t\t\tout = append(out, t)\n" +
				"\t\t}\n" +
				"\t}\n}\n",
			wantMsg: "batchalias",
		},
		{
			name: "retained ColBatch column slice in internal/engine",
			pkg:  "./internal/engine",
			file: filepath.Join(root, "internal", "engine", "zz_injected.go"),
			src: "package engine\n\nimport \"repro/internal/table\"\n\n" +
				"type injectedSink struct{ ints []int64 }\n\n" +
				"func injectedColRetain(op ColOperator, s *injectedSink) error {\n" +
				"\tb := table.NewColBatch(op.Schema())\n" +
				"\tif _, err := op.NextColBatch(b); err != nil {\n" +
				"\t\treturn err\n" +
				"\t}\n" +
				"\ts.ints = b.Cols[0].Ints\n" +
				"\treturn nil\n}\n",
			wantMsg: "batchalias",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Inject the violation through a build overlay: the tree on disk
			// stays untouched.
			tmp := t.TempDir()
			src := filepath.Join(tmp, "injected.go")
			if err := os.WriteFile(src, []byte(tc.src), 0o666); err != nil {
				t.Fatal(err)
			}
			overlay := filepath.Join(tmp, "overlay.json")
			data, err := json.Marshal(map[string]map[string]string{
				"Replace": {tc.file: src},
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(overlay, data, 0o666); err != nil {
				t.Fatal(err)
			}
			out, err := runVet(t, root, bin, []string{"-overlay=" + overlay}, tc.pkg)
			if err == nil {
				t.Fatalf("go vet succeeded; want it to fail on the injected violation\n%s", out)
			}
			if !strings.Contains(out, tc.wantMsg) {
				t.Fatalf("go vet failed but without a %s diagnostic:\n%s", tc.wantMsg, out)
			}
		})
	}
}
