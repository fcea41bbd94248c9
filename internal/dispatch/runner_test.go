package dispatch

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestExecuteSimSpec(t *testing.T) {
	res := Execute(Spec{Kind: KindSim, Name: "sim-lb", Sim: &SimSpec{
		PEs: 4, TotalTuples: 5000, Policy: "balancer",
		LoadMultipliers: []float64{10, 1, 1, 1},
	}})
	if res.State != StateCompleted {
		t.Fatalf("state %s, error %q", res.State, res.Error)
	}
	if res.SchemaVersion != ResultVersion || res.Kind != KindSim {
		t.Fatalf("envelope wrong: %+v", res)
	}
	if res.Sim == nil || res.Sim.Completed != 5000 {
		t.Fatalf("sim payload: %+v", res.Sim)
	}
	if res.Sim.Policy == "" || res.Sim.MeanThroughput <= 0 {
		t.Fatalf("sim metrics empty: %+v", res.Sim)
	}
	if res.Bench == nil || len(res.Bench.Results) != 1 {
		t.Fatalf("sim run produced no bench row: %+v", res.Bench)
	}
	row := res.Bench.Results[0]
	if !strings.HasPrefix(row.Name, "BenchmarkDispatchSim/") || row.Metrics["tuples/s"] <= 0 {
		t.Fatalf("bench row: %+v", row)
	}
	if res.Env.GoVersion == "" || res.Env.NumCPU <= 0 {
		t.Fatalf("env fingerprint empty: %+v", res.Env)
	}
}

func TestExecuteBenchRegionTransportSpec(t *testing.T) {
	res := Execute(Spec{Kind: KindBench, Name: "region-inproc", Bench: &BenchSpec{
		Benchmark: "region-transport", Transport: "inproc", Workers: 4, Batch: 32, Tuples: 4000,
	}})
	if res.State != StateCompleted {
		t.Fatalf("state %s, error %q", res.State, res.Error)
	}
	if res.Bench == nil || len(res.Bench.Results) != 1 {
		t.Fatalf("bench payload: %+v", res.Bench)
	}
	row := res.Bench.Results[0]
	// The row must pair with go-test benchmark rows under benchguard's
	// pkg+name key.
	if row.Pkg != "streambalance" || row.Name != "BenchmarkRegionTransport/transport=inproc/batch=32" {
		t.Fatalf("row does not mirror the go-test benchmark name: %+v", row)
	}
	if row.Metrics["tuples/s"] <= 0 || row.Metrics["ns/op"] <= 0 {
		t.Fatalf("row metrics: %+v", row.Metrics)
	}
}

func TestExecuteSimThroughputBenchSpec(t *testing.T) {
	res := Execute(Spec{Kind: KindBench, Name: "simthru", Bench: &BenchSpec{
		Benchmark: "sim-throughput", PEs: 4, Tuples: 5000, Iters: 2,
	}})
	if res.State != StateCompleted {
		t.Fatalf("state %s, error %q", res.State, res.Error)
	}
	row := res.Bench.Results[0]
	if row.Name != "BenchmarkSimulatorThroughput" || row.Iterations != 2 {
		t.Fatalf("row: %+v", row)
	}
}

func TestExecuteFailingSpecIsDataNotError(t *testing.T) {
	// ServiceJitter >= 1 passes spec validation but the simulator rejects it:
	// the run must archive as failed, not crash the worker.
	res := Execute(Spec{Kind: KindSim, Name: "sim-bad", Sim: &SimSpec{
		PEs: 2, TotalTuples: 100, ServiceJitter: 1.5,
	}})
	if res.State != StateFailed || res.Error == "" {
		t.Fatalf("state %s, error %q; want failed with message", res.State, res.Error)
	}
}

func TestResultArchiveRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "001-sim-a")
	spec := Spec{Kind: KindSim, Name: "sim-a", Sim: &SimSpec{PEs: 2, TotalTuples: 500}}
	if err := WriteSpec(dir, spec); err != nil {
		t.Fatal(err)
	}
	res := Execute(spec)
	res.RunID = "001-sim-a"
	if err := WriteResult(dir, res); err != nil {
		t.Fatal(err)
	}
	back, err := LoadResult(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.RunID != "001-sim-a" || back.State != StateCompleted || back.Sim == nil {
		t.Fatalf("round trip: %+v", back)
	}
	if back.Spec == nil || back.Spec.Name != "sim-a" {
		t.Fatalf("spec not embedded: %+v", back.Spec)
	}

	// The archived run doubles as a benchguard side.
	rep, err := LoadBenchReport(filepath.Join(dir, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 1 {
		t.Fatalf("bench rows: %+v", rep.Results)
	}
}

func TestLoadBenchReportReadsRawBaseline(t *testing.T) {
	// A raw benchjson document written before schema versioning (no
	// schema_version, no run envelope) must load as the other side of a
	// comparison.
	raw := `{"goos":"linux","goarch":"amd64","results":[{"pkg":"streambalance",
		"name":"BenchmarkRegionTransport/transport=inproc/batch=32","iterations":3,
		"metrics":{"ns/op":1.5e8,"tuples/s":1.3e6}}]}`
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := LoadBenchReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 1 || !strings.Contains(rep.Results[0].Name, "RegionTransport/transport=inproc") ||
		rep.Results[0].Metrics["tuples/s"] != 1.3e6 {
		t.Fatalf("baseline rows not loaded: %+v", rep.Results)
	}
}

func TestLoadResultMissingIsCrashSignature(t *testing.T) {
	if _, err := LoadResult(t.TempDir()); err == nil || !strings.Contains(err.Error(), "no result") {
		t.Fatalf("missing result: %v", err)
	}
}
