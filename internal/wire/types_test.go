package wire

import (
	"ftbar/internal/paperex"

	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenRoundTrips decodes every committed golden response body
// (captured from the pre-extraction service) into the moved wire structs
// and re-encodes it: byte equality proves the move kept every JSON field
// name, order and omitempty decision intact.
func TestGoldenRoundTrips(t *testing.T) {
	dir := filepath.Join("..", "service", "testdata", "golden")
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("golden corpus missing: %v", err)
	}
	if len(files) < 10 {
		t.Fatalf("suspiciously small golden corpus: %d files", len(files))
	}
	for _, f := range files {
		t.Run(f.Name(), func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join(dir, f.Name()))
			if err != nil {
				t.Fatal(err)
			}
			var into any
			switch {
			case f.Name() == "batch_seeds.json":
				into = new(BatchResponse)
			case f.Name() == "sweep_paper.json":
				into = new(SweepResponse)
			default:
				into = new(ScheduleReply)
			}
			dec := json.NewDecoder(bytes.NewReader(data))
			if err := dec.Decode(into); err != nil {
				t.Fatalf("decode into %T: %v", into, err)
			}
			var out bytes.Buffer
			enc := json.NewEncoder(&out)
			enc.SetIndent("", "  ")
			if err := enc.Encode(into); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), data) {
				t.Errorf("round trip through %T drifted from golden\ngot:  %.300s\nwant: %.300s",
					into, out.Bytes(), data)
			}
		})
	}
}

// TestCacheKeyStability pins the content-address semantics the cluster
// routes on: equal problems share a key whatever the decoded object
// identity, include flags alter the key (a response is cached with
// exactly its artefacts), and a missing problem fails as BAD_REQUEST.
func TestCacheKeyStability(t *testing.T) {
	if _, err := (&ScheduleRequest{}).CacheKey(); CodeOf(err) != CodeBadRequest {
		t.Errorf("missing problem: CodeOf = %s, want BAD_REQUEST", CodeOf(err))
	}
	a := ScheduleRequest{Problem: paperex.Problem()}
	b := ScheduleRequest{Problem: paperex.Problem()}
	ka, err := a.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	kb, err := b.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Error("identical problems in distinct objects got different keys")
	}
	b.Include.Gantt = true
	if kb3, _ := b.CacheKey(); kb3 == ka {
		t.Error("include flags did not change the key")
	}
}

// TestCacheKeyIgnoresRetiredEngineField decodes a request from a client
// that still sends the retired "engine" option: the lenient decoder
// drops it, so the request keys exactly like one without it.
func TestCacheKeyIgnoresRetiredEngineField(t *testing.T) {
	body, err := json.Marshal(&ScheduleRequest{Problem: paperex.Problem()})
	if err != nil {
		t.Fatal(err)
	}
	var plain, old ScheduleRequest
	if err := json.Unmarshal(body, &plain); err != nil {
		t.Fatal(err)
	}
	withEngine := bytes.Replace(body, []byte(`"options":{}`), []byte(`"options":{"engine":"reference"}`), 1)
	if bytes.Equal(withEngine, body) {
		t.Fatalf("request body has no empty options object: %.200s", body)
	}
	if err := json.Unmarshal(withEngine, &old); err != nil {
		t.Fatal(err)
	}
	kp, err := plain.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	if ko, _ := old.CacheKey(); ko != kp {
		t.Error(`a request carrying "engine" keyed differently`)
	}
}

// TestCacheKeyAfterSetFaults pins that the memoised problem key does not
// outlive a budget change: SetFaults after keying yields a new key, the
// same one a fresh problem with that budget gets.
func TestCacheKeyAfterSetFaults(t *testing.T) {
	r := ScheduleRequest{Problem: paperex.Problem()}
	k1, err := r.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	f := r.Problem.FaultModel()
	f.Npf++
	r.Problem.SetFaults(f)
	k2, err := r.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	if k2 == k1 {
		t.Fatal("SetFaults after keying kept the stale key")
	}
	fresh := ScheduleRequest{Problem: paperex.Problem()}
	fresh.Problem.SetFaults(f)
	if kf, _ := fresh.CacheKey(); kf != k2 {
		t.Error("re-keyed problem differs from a fresh one with the same budget")
	}
}
