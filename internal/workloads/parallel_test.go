package workloads

import (
	"context"
	"reflect"
	"testing"

	"intrawarp/internal/compaction"
	"intrawarp/internal/gpu"
)

// TestExecuteParallelDeterminism runs real workloads — including BFS,
// whose frontier expansion uses cross-workgroup atomics and host-inspected
// launch loops — serially and with a parallel worker pool, under every
// compaction policy, and requires bit-identical statistics.
func TestExecuteParallelDeterminism(t *testing.T) {
	cases := []struct {
		name string
		n    int
	}{
		{"bsearch", 256},
		{"bfs", 256},
		{"dotproduct", 512},
		{"particlefilter", 128},
	}
	for _, tc := range cases {
		spec, err := ByName(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range compaction.Policies {
			run := func(workers int) *gpu.GPU {
				return gpu.New(gpu.DefaultConfig().WithPolicy(p).WithWorkers(workers))
			}
			serial, err := ExecuteCtx(context.Background(), run(1), spec, ExecOptions{Size: tc.n})
			if err != nil {
				t.Fatalf("%s/%s serial: %v", tc.name, p, err)
			}
			parallel, err := ExecuteCtx(context.Background(), run(8), spec, ExecOptions{Size: tc.n})
			if err != nil {
				t.Fatalf("%s/%s parallel: %v", tc.name, p, err)
			}
			if !reflect.DeepEqual(serial, parallel) {
				t.Fatalf("%s under %s: parallel stats differ from serial\nserial:   %+v\nparallel: %+v",
					tc.name, p, serial, parallel)
			}
		}
	}
}

// TestExecuteSkipVerify checks the verification-off-the-hot-path option
// still produces the same statistics as a verified run.
func TestExecuteSkipVerify(t *testing.T) {
	spec, err := ByName("bsearch")
	if err != nil {
		t.Fatal(err)
	}
	verified, err := ExecuteCtx(context.Background(), gpu.New(gpu.DefaultConfig()), spec, ExecOptions{Size: 256})
	if err != nil {
		t.Fatal(err)
	}
	skipped, err := ExecuteCtx(context.Background(), gpu.New(gpu.DefaultConfig()), spec, ExecOptions{Size: 256, SkipVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(verified, skipped) {
		t.Fatal("SkipVerify changed statistics")
	}
}
