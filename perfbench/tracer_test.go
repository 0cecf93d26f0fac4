package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: spanOp, Start: 0, End: 100},
		// Overlapping children cover [10,50); the last one runs past the
		// parent's end and counts only up to it.
		{ID: 1, Parent: 0, Name: "a", Start: 20, End: 50},
		{ID: 2, Parent: 0, Name: "b", Start: 10, End: 30},
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120},
		{ID: 4, Parent: 1, Name: "d", Start: 25, End: 35},
	}
	want := []int64{100 - 40 - 10, 30 - 10, 20, 30, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
}

func TestLayerMedians(t *testing.T) {
	// Op 1 spends 30 of its 100 in a registry call under its ServeHTTP
	// span and replays a 50 decode; op 2 and op 3 never call the
	// registry. Replays sit outside the op span but count against it.
	spans := []span{
		{Op: 1, ID: 0, Parent: -1, Name: spanOp, Start: 0, End: 100_000},
		{Op: 1, ID: 1, Parent: 0, Name: spanServe + "/v1/detect", Start: 1_000, End: 99_000},
		{Op: 1, ID: 2, Parent: 1, Name: "registry.get_owner", Start: 2_000, End: 32_000},
		{Op: 1, ID: 3, Parent: 1, Name: spanLookup, Start: 32_000, End: 33_000},
		{Op: 1, ID: 4, Parent: -1, Name: spanReplay, Start: 100_000, End: 160_000},
		{Op: 1, ID: 5, Parent: 4, Name: "core.decode", Start: 101_000, End: 151_000},
		{Op: 2, ID: 6, Parent: -1, Name: spanOp, Start: 200_000, End: 260_000},
		{Op: 2, ID: 7, Parent: -1, Name: spanReplay, Start: 260_000, End: 300_000},
		{Op: 2, ID: 8, Parent: 7, Name: "core.decode", Start: 260_000, End: 300_000},
		{Op: 3, ID: 9, Parent: -1, Name: spanOp, Start: 300_000, End: 380_000},
		{Op: 3, ID: 10, Parent: -1, Name: spanReplay, Start: 380_000, End: 450_000},
		{Op: 3, ID: 11, Parent: 10, Name: "core.decode", Start: 380_000, End: 450_000},
	}
	layers, wall := make(map[int64]map[string]int64), make(map[int64]int64)
	opLayers(spans, layers, wall)
	got := layerMedians(layers, wall, []string{"registry.get_owner", "core.decode", "stream.embed"})
	for name, want := range map[string]float64{
		"registry.get_owner_us": 0, // 30 on one op of three
		"core.decode_us":        50,
		"stream.embed_us":       0,
		// 100-30-1-50 = 19, 60-40 = 20, 80-70 = 10.
		"server.unattributed_us": 19,
	} {
		if got[name] != want {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}
}

func TestCallingClient(t *testing.T) {
	if got := callingClient(); got != -1 {
		t.Errorf("outside any client loop: callingClient = %d, want -1", got)
	}
	for k := range 4 {
		got := -2
		nest(k, func() { got = callingClient() })
		if got != k {
			t.Errorf("under nest(%d): callingClient = %d", k, got)
		}
	}
}

func TestObserveRegistryAttributesToCallingClient(t *testing.T) {
	epoch := time.Now()
	tr := newTracer(2, epoch, 8)
	tr.clients[1].op = 7
	sp := tr.clients[1].begin(spanServe+"/v1/detect", epoch)
	nest(1, func() {
		tr.observeRegistry("registry.get_owner", epoch.Add(time.Millisecond), epoch.Add(2*time.Millisecond))
	})
	tr.clients[1].end(sp, epoch.Add(3*time.Millisecond))
	tr.observeRegistry("registry.list_owners", epoch, epoch)

	if n := len(tr.clients[0].spans); n != 0 {
		t.Errorf("client 0 recorded %d spans, want 0", n)
	}
	got := tr.clients[1].spans
	if len(got) != 3 || got[1].Name != "registry.get_owner" || got[2].Name != spanLookup {
		t.Fatalf("client 1 spans = %+v, want ServeHTTP, registry.get_owner, %s", got, spanLookup)
	}
	if got[1].Op != 7 || got[1].Parent != sp || got[1].End-got[1].Start != int64(time.Millisecond) {
		t.Errorf("registry span = %+v, want op 7 under span %d lasting 1ms", got[1], sp)
	}
	if n := tr.orphans.Load(); n != 1 {
		t.Errorf("orphans = %d, want 1 (the call made outside any client)", n)
	}
}
