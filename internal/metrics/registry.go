package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind distinguishes the three instrument families.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// DefBuckets are the default histogram bucket upper bounds (seconds),
// matching the conventional Prometheus client defaults.
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// Registry holds metric families and renders them in registration order, so
// successive scrapes are diffable.
type Registry struct {
	mu       sync.RWMutex
	families []*family
	byName   map[string]*family
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// family is one named metric with a fixed kind and label-name set.
type family struct {
	name    string
	help    string
	kind    Kind
	labels  []string
	buckets []float64 // histogram upper bounds, ascending, +Inf implicit

	mu    sync.RWMutex
	order []*series
	bySig map[string]*series
}

// series is one label-value combination of a family. Counter and gauge
// values are float64 bits in an atomic word, or — once bound with SetFunc — a
// function the readers call instead; histograms add bucket counts and a sum.
type series struct {
	labelValues []string
	bits        atomic.Uint64
	fn          atomic.Pointer[func() float64]

	counts  []atomic.Uint64 // len(buckets)+1; last is +Inf
	sumBits atomic.Uint64
	count   atomic.Uint64
}

// value is the one read path of a counter or gauge series: every scrape
// surface (Samples, Value, SumAcross, WritePrometheus, the handles' Value)
// comes through here, so a bound series reads the same everywhere.
func (s *series) value() float64 {
	if fn := s.fn.Load(); fn != nil {
		return (*fn)()
	}
	return math.Float64frombits(s.bits.Load())
}

// addFloat atomically adds v to a float64 stored as bits.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// validName reports whether s is a legal Prometheus metric name.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_' || r == ':'
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// validLabel reports whether s is a legal label name (no colons).
func validLabel(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_'
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// family registers (or retrieves) a metric family. Re-registration with a
// different kind or label set panics: two components disagreeing about what
// a name means is a bug to surface, not to paper over.
func (r *Registry) family(name, help string, kind Kind, labels []string, buckets []float64) *family {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validLabel(l) {
			panic(fmt.Sprintf("metrics: invalid label name %q on %q", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("metrics: %q re-registered as %v, was %v", name, kind, f.kind))
		}
		if len(f.labels) != len(labels) {
			panic(fmt.Sprintf("metrics: %q re-registered with %d labels, was %d", name, len(labels), len(f.labels)))
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic(fmt.Sprintf("metrics: %q re-registered with label %q, was %q", name, labels[i], f.labels[i]))
			}
		}
		return f
	}
	f := &family{
		name:   name,
		help:   help,
		kind:   kind,
		labels: append([]string(nil), labels...),
		bySig:  make(map[string]*series),
	}
	if kind == KindHistogram {
		if len(buckets) == 0 {
			buckets = DefBuckets
		}
		bs := append([]float64(nil), buckets...)
		sort.Float64s(bs)
		// Drop duplicates and a trailing +Inf (implicit).
		out := bs[:0]
		for i, b := range bs {
			if math.IsInf(b, +1) {
				continue
			}
			if i > 0 && b == bs[i-1] {
				continue
			}
			out = append(out, b)
		}
		f.buckets = out
	}
	r.families = append(r.families, f)
	r.byName[name] = f
	return f
}

// sig builds the lookup key for a label-value combination. Length-prefixed
// so no value byte sequence can collide with another combination.
func sig(values []string) string {
	n := 0
	for _, v := range values {
		n += len(v) + 4
	}
	b := make([]byte, 0, n)
	for _, v := range values {
		b = append(b, byte(len(v)), byte(len(v)>>8), byte(len(v)>>16), byte(len(v)>>24))
		b = append(b, v...)
	}
	return string(b)
}

// get returns the series for the given label values, creating it on first
// use. The fast path is a read-locked map hit.
func (f *family) get(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := sig(values)
	f.mu.RLock()
	s, ok := f.bySig[key]
	f.mu.RUnlock()
	if ok {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.bySig[key]; ok {
		return s
	}
	s = &series{labelValues: append([]string(nil), values...)}
	if f.kind == KindHistogram {
		s.counts = make([]atomic.Uint64, len(f.buckets)+1)
	}
	f.bySig[key] = s
	f.order = append(f.order, s)
	return s
}

// Counter is a monotone non-decreasing value. Negative or NaN deltas are
// ignored so the monotonicity contract survives buggy callers.
type Counter struct{ s *series }

// Add increments the counter by v (v <= 0 and NaN are dropped).
func (c *Counter) Add(v float64) {
	if !(v > 0) {
		return
	}
	addFloat(&c.s.bits, v)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current total.
func (c *Counter) Value() float64 { return c.s.value() }

// SetFunc binds the series to a count its owner already keeps: every reader
// then calls fn instead of loading the stored value, and Add/Inc no longer
// show. fn runs on the scraping goroutine: it must be safe beside the owner,
// must not block and must never decrease. Binding again replaces the reader.
func (c *Counter) SetFunc(fn func() float64) { c.s.fn.Store(&fn) }

// Gauge is a value that can move both ways.
type Gauge struct{ s *series }

// Set stores v.
func (g *Gauge) Set(v float64) { g.s.bits.Store(math.Float64bits(v)) }

// Add shifts the gauge by v (may be negative).
func (g *Gauge) Add(v float64) { addFloat(&g.s.bits, v) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.s.value() }

// SetFunc binds the series to a level its owner already keeps; see
// Counter.SetFunc (a gauge's fn may move both ways).
func (g *Gauge) SetFunc(fn func() float64) { g.s.fn.Store(&fn) }

// Histogram accumulates observations into cumulative buckets.
type Histogram struct {
	s       *series
	buckets []float64
}

// Observe records one observation. NaN lands in the +Inf bucket.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.buckets, v)
	h.s.counts[i].Add(1)
	addFloat(&h.s.sumBits, v)
	h.s.count.Add(1)
}

// Count returns how many observations were recorded.
func (h *Histogram) Count() uint64 { return h.s.count.Load() }

// CounterVec is a counter family with labels; resolve children once with
// With and hold the handle on the hot path.
type CounterVec struct{ f *family }

// With returns the child counter for the given label values.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return &Counter{s: v.f.get(labelValues)}
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// With returns the child gauge for the given label values.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return &Gauge{s: v.f.get(labelValues)}
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return &Histogram{s: v.f.get(labelValues), buckets: v.f.buckets}
}

// Counter registers (or retrieves) a label-less counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.family(name, help, KindCounter, nil, nil)
	return &Counter{s: f.get(nil)}
}

// CounterVec registers (or retrieves) a labelled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{f: r.family(name, help, KindCounter, labelNames, nil)}
}

// Gauge registers (or retrieves) a label-less gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.family(name, help, KindGauge, nil, nil)
	return &Gauge{s: f.get(nil)}
}

// GaugeVec registers (or retrieves) a labelled gauge family.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{f: r.family(name, help, KindGauge, labelNames, nil)}
}

// Histogram registers (or retrieves) a label-less histogram. buckets are
// upper bounds in ascending order; nil selects DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.family(name, help, KindHistogram, nil, buckets)
	return &Histogram{s: f.get(nil), buckets: f.buckets}
}

// HistogramVec registers (or retrieves) a labelled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	return &HistogramVec{f: r.family(name, help, KindHistogram, labelNames, buckets)}
}

// Sample is one flattened scrape value; histograms expand into _bucket,
// _sum and _count samples as in the exposition format.
type Sample struct {
	Name        string
	LabelNames  []string
	LabelValues []string
	Value       float64
}

// Samples returns every current value, families in registration order.
func (r *Registry) Samples() []Sample {
	r.mu.RLock()
	fams := append([]*family(nil), r.families...)
	r.mu.RUnlock()
	var out []Sample
	for _, f := range fams {
		f.mu.RLock()
		series := append([]*series(nil), f.order...)
		f.mu.RUnlock()
		for _, s := range series {
			switch f.kind {
			case KindHistogram:
				le := append([]string(nil), f.labels...)
				le = append(le, "le")
				cum := uint64(0)
				for i := range s.counts {
					cum += s.counts[i].Load()
					bound := math.Inf(+1)
					if i < len(f.buckets) {
						bound = f.buckets[i]
					}
					lv := append(append([]string(nil), s.labelValues...), formatFloat(bound))
					out = append(out, Sample{Name: f.name + "_bucket", LabelNames: le, LabelValues: lv, Value: float64(cum)})
				}
				out = append(out,
					Sample{Name: f.name + "_sum", LabelNames: f.labels, LabelValues: s.labelValues, Value: math.Float64frombits(s.sumBits.Load())},
					Sample{Name: f.name + "_count", LabelNames: f.labels, LabelValues: s.labelValues, Value: float64(s.count.Load())})
			default:
				out = append(out, Sample{
					Name:        f.name,
					LabelNames:  f.labels,
					LabelValues: s.labelValues,
					Value:       s.value(),
				})
			}
		}
	}
	return out
}

// Value looks up one counter or gauge value by name and alternating
// label-name/label-value pairs; ok=false when the series does not exist.
// Histograms are not addressable through Value — use Samples.
func (r *Registry) Value(name string, labelPairs ...string) (float64, bool) {
	if len(labelPairs)%2 != 0 {
		panic("metrics: Value needs alternating label name/value pairs")
	}
	r.mu.RLock()
	f, ok := r.byName[name]
	r.mu.RUnlock()
	if !ok || f.kind == KindHistogram {
		return 0, false
	}
	values := make([]string, len(f.labels))
	matched := 0
	for i := 0; i < len(labelPairs); i += 2 {
		found := false
		for j, l := range f.labels {
			if l == labelPairs[i] {
				values[j] = labelPairs[i+1]
				found = true
				matched++
			}
		}
		if !found {
			return 0, false
		}
	}
	if matched != len(f.labels) {
		return 0, false
	}
	key := sig(values)
	f.mu.RLock()
	s, ok := f.bySig[key]
	f.mu.RUnlock()
	if !ok {
		return 0, false
	}
	return s.value(), true
}

// SumAcross sums every series of a counter or gauge family (e.g. a total
// over all connections); ok=false when the family is unknown.
func (r *Registry) SumAcross(name string) (float64, bool) {
	r.mu.RLock()
	f, ok := r.byName[name]
	r.mu.RUnlock()
	if !ok || f.kind == KindHistogram {
		return 0, false
	}
	f.mu.RLock()
	series := append([]*series(nil), f.order...)
	f.mu.RUnlock()
	total := 0.0
	for _, s := range series {
		total += s.value()
	}
	return total, true
}
