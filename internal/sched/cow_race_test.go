package sched

// Race coverage for the shared route and fan stores: a clone family
// shares one routeStore and one fanStore, warm lookups go through an
// atomic pointer with no lock, and cold fills publish under the fill
// mutex (a per-edge table, or a fresh copy-on-write fan map). The incremental engine's preview fan-out exercises
// exactly this — concurrent previews over sibling clones, some hitting
// warm entries while others fill cold ones — so this test reproduces it
// under the race detector (run via `go test -race`, as the CI race step
// does). Any unsynchronised mutation of a published table is a detector
// hit even when the values happen to come out right.

import (
	"sync"
	"testing"

	"ftbar/internal/arch"
	"ftbar/internal/gen"
	"ftbar/internal/model"
)

func TestConcurrentPreviewsOverCloneFamily(t *testing.T) {
	// A ring forces multi-hop routing tables, and Nmf=1 forces disjoint
	// fan computations — both stores see cold fills during the previews.
	p, err := gen.Generate(gen.Params{
		N: 30, CCR: 2, Procs: 6, Topology: gen.TopoRing, Npf: 1, Nmf: 1, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSchedule(p)
	if err != nil {
		t.Fatal(err)
	}
	tg := s.Tasks()
	topo := tg.Topo()
	placed := 2 * len(topo) / 3
	for i := 0; i < placed; i++ {
		for k := 0; k <= p.Npf; k++ {
			proc := arch.ProcID((i + k) % p.Arc.NumProcs())
			if _, err := s.PlaceReplica(topo[i], proc); err != nil {
				t.Fatalf("place %d on %d: %v", topo[i], proc, err)
			}
		}
	}
	probes := topo[placed:]
	if len(probes) > 8 {
		probes = probes[:8]
	}

	// One clone per worker: a Schedule is single-writer, but the family
	// shares the stores, so the races under test are cross-clone.
	const workers = 8
	clones := make([]*Schedule, workers)
	for i := range clones {
		clones[i] = s.Clone()
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(c *Schedule, w int) {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				for pi, task := range probes {
					// Stagger the (task, proc) walk per worker so cold
					// fills and warm lookups of the same entries overlap.
					proc := arch.ProcID((w + iter + pi) % p.Arc.NumProcs())
					if _, err := c.Preview(model.TaskID(task), proc); err != nil {
						// Forbidden placements are fine; the stores are
						// still consulted on the way to the error.
						continue
					}
				}
			}
		}(clones[w], w)
	}
	wg.Wait()

	// The family must agree with a fresh, store-cold schedule on every
	// probe: concurrent publication must never corrupt a table.
	fresh, err := NewSchedule(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < placed; i++ {
		for k := 0; k <= p.Npf; k++ {
			proc := arch.ProcID((i + k) % p.Arc.NumProcs())
			if _, err := fresh.PlaceReplica(topo[i], proc); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, task := range probes {
		for proc := 0; proc < p.Arc.NumProcs(); proc++ {
			want, wantErr := fresh.Preview(task, arch.ProcID(proc))
			got, gotErr := s.Preview(task, arch.ProcID(proc))
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("preview (%d,%d): error mismatch %v vs %v", task, proc, gotErr, wantErr)
			}
			if wantErr == nil && (got.SBest != want.SBest || got.SWorst != want.SWorst) {
				t.Fatalf("preview (%d,%d) diverged after concurrent fills: %+v vs %+v",
					task, proc, got, want)
			}
		}
	}
}
