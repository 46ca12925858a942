package main

import (
	"reflect"
	"testing"

	"vgiw/internal/bench"
	"vgiw/internal/kasm"
	"vgiw/internal/kernels"
)

func TestDaemonMixDeterministic(t *testing.T) {
	w1, s1 := DaemonMix(7, 2, 200)
	w2, s2 := DaemonMix(7, 2, 200)
	if !reflect.DeepEqual(w1, w2) || !reflect.DeepEqual(s1, s2) {
		t.Fatal("same seed gave different job lists")
	}
	_, s3 := DaemonMix(8, 2, 200)
	if reflect.DeepEqual(s1, s3) {
		t.Fatal("different seeds gave the same job list")
	}
}

func TestDaemonMixShapes(t *testing.T) {
	const clients, per = 3, 400
	warm, streams := DaemonMix(42, clients, per)
	used := map[designKey]bool{}
	addFresh := func(s bench.JobSpec) {
		if err := s.Normalize(); err != nil {
			t.Fatalf("invalid fresh spec %+v: %v", s, err)
		}
		k := keyOf(s)
		if used[k] {
			t.Fatalf("fresh design point repeats: %+v", k)
		}
		used[k] = true
	}
	if len(warm) != len(kernels.All()) {
		t.Fatalf("%d warm-up jobs, want one per kernel", len(warm))
	}
	for _, s := range warm {
		addFresh(s)
	}
	if len(streams) != clients {
		t.Fatalf("%d streams", len(streams))
	}
	nKernels := len(kernels.All())
	for c, stream := range streams {
		if len(stream) != per {
			t.Fatalf("client %d: %d jobs, want %d", c, len(stream), per)
		}
		var freshKernels []string
		for b := 0; b < per; b += blockLen {
			var n [3]int
			fast := 0
			for _, j := range stream[b : b+blockLen] {
				n[j.Kind]++
				if j.Kind == Fresh && j.Spec.Fast {
					fast++
				}
			}
			if n != [3]int{blockFresh, blockRepeat, blockSource} || fast != blockFast {
				t.Fatalf("client %d block %d: kinds %v fast %d", c, b/blockLen, n, fast)
			}
		}
		for i, j := range stream {
			switch j.Kind {
			case Fresh:
				addFresh(j.Spec)
				freshKernels = append(freshKernels, j.Spec.Kernel)
			case Repeat:
				if j.Of < 0 || j.Of >= i || stream[j.Of].Kind != Fresh || stream[j.Of].Spec != j.Spec {
					t.Fatalf("client %d job %d: repeat of %d is not an earlier fresh job", c, i, j.Of)
				}
			case Source:
				if _, ok := kernels.ByName(j.Kernel); !ok {
					t.Fatalf("client %d job %d: source of unknown kernel %q", c, i, j.Kernel)
				}
			}
		}
		// Fresh jobs deal whole permutations of the registry.
		for b := 0; b+nKernels <= len(freshKernels); b += nKernels {
			seen := map[string]bool{}
			for _, k := range freshKernels[b : b+nKernels] {
				seen[k] = true
			}
			if len(seen) != nKernels {
				t.Fatalf("client %d: fresh jobs %d..%d cover %d kernels", c, b, b+nKernels, len(seen))
			}
		}
	}
}

func TestSourceTextUnique(t *testing.T) {
	w, err := kernels.NewWorkload(kernels.All()[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	a, b := SourceText(w, "c0", 1), SourceText(w, "c0", 2)
	if a == b || a == SourceText(w, "c1", 1) {
		t.Fatal("source texts collide")
	}
	k, err := kasm.Parse(a)
	if err != nil {
		t.Fatal(err)
	}
	if kasm.Print(k) != kasm.Print(w.Kernel()) {
		t.Fatal("tagged source parses to a different kernel")
	}
}

func TestFleetMatrix(t *testing.T) {
	m := FleetMatrix(3, 2)
	if !reflect.DeepEqual(m, FleetMatrix(3, 2)) {
		t.Fatal("same seed gave different matrices")
	}
	if reflect.DeepEqual(m, FleetMatrix(4, 2)) {
		t.Fatal("different seeds gave the same matrix")
	}
	uniq := map[bench.JobSpec]int{}
	kbs := map[int]bool{}
	for i, s := range m {
		if _, ok := uniq[s]; !ok {
			uniq[s] = i
		}
		kbs[s.LVCKB] = true
		if err := s.Normalize(); err != nil {
			t.Fatal(err)
		}
	}
	n := len(kernels.All()) * 2
	if len(uniq) != n || len(kbs) != 2 || len(m) != n+n/fleetDupFrac {
		t.Fatalf("%d tasks, %d unique, %d LVC sizes", len(m), len(uniq), len(kbs))
	}
}
