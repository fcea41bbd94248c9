package core

import (
	"testing"
)

func TestAddConnectionExploresNewWorker(t *testing.T) {
	b, err := NewBalancer(Config{Connections: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Teach the balancer that both existing connections saturate at ~30%.
	driveBalancer(t, b, []int{300, 300}, 15)

	j := b.AddConnection()
	if j != 2 || b.Connections() != 3 {
		t.Fatalf("AddConnection -> %d, connections %d; want 2 and 3", j, b.Connections())
	}
	if w := b.Weights()[2]; w != 0 {
		t.Fatalf("new connection starts with weight %d, want 0", w)
	}
	weights, err := b.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	// The empty function predicts no blocking anywhere: the new worker must
	// receive a substantial share immediately.
	if weights[2] < 200 {
		t.Fatalf("weights after adding a worker: %v, want conn2 explored aggressively", weights)
	}
	sum := 0
	for _, w := range weights {
		sum += w
	}
	if sum != b.Units() {
		t.Fatalf("weights %v sum to %d", weights, sum)
	}
}

func TestRemoveConnectionRedistributes(t *testing.T) {
	b, err := NewBalancer(Config{Connections: 3})
	if err != nil {
		t.Fatal(err)
	}
	driveBalancer(t, b, []int{50, 600, 600}, 20)
	before := b.Weights()
	if err := b.RemoveConnection(0); err != nil {
		t.Fatal(err)
	}
	if b.Connections() != 2 {
		t.Fatalf("connections = %d, want 2", b.Connections())
	}
	after := b.Weights()
	sum := 0
	for _, w := range after {
		sum += w
	}
	if sum != b.Units() {
		t.Fatalf("weights %v sum to %d after removal", after, sum)
	}
	// The survivors keep at least their previous weights.
	if after[0] < before[1] || after[1] < before[2] {
		t.Fatalf("weights %v shrank below pre-removal %v", after, before)
	}
	// Learned functions shifted down with the indices: the old connection 1
	// function is now at index 0 and still predicts blocking above its
	// capacity.
	if b.Func(0).SampleCount() == 0 {
		t.Fatal("function data lost on removal")
	}
	// Rebalancing still works after the resize.
	if _, err := b.Rebalance(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveConnectionValidation(t *testing.T) {
	b, err := NewBalancer(Config{Connections: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.RemoveConnection(5); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	if err := b.RemoveConnection(-1); err == nil {
		t.Fatal("negative index accepted")
	}
	if err := b.RemoveConnection(0); err != nil {
		t.Fatal(err)
	}
	if err := b.RemoveConnection(0); err == nil {
		t.Fatal("removed the last connection")
	}
}

func TestRemoveConnectionWithZeroSurvivorWeights(t *testing.T) {
	b, err := NewBalancer(Config{Connections: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Force all weight onto connection 0, then remove it: the freed units
	// must split evenly across the zero-weight survivors.
	b.weights = []int{1000, 0, 0}
	if err := b.RemoveConnection(0); err != nil {
		t.Fatal(err)
	}
	w := b.Weights()
	if w[0]+w[1] != 1000 || w[0] < 400 || w[1] < 400 {
		t.Fatalf("weights after removal = %v, want an even split of 1000", w)
	}
}
