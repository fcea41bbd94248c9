package metrics

import (
	"bufio"
	"io"
	"math"
	"strconv"
	"strings"
)

// formatFloat renders a sample value the way the Prometheus text format
// expects: shortest round-trippable decimal, with NaN, +Inf and -Inf
// spelled literally (strconv already emits exactly those spellings).
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes a HELP string: backslash and newline.
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	// Byte-wise on purpose: escaping must not re-encode (and thereby
	// corrupt) byte sequences that are not valid UTF-8.
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

// escapeLabel escapes a label value: backslash, double quote and newline.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

// writeLabels renders {k="v",...}; nothing when there are no labels.
func writeLabels(w *bufio.Writer, names, values []string) {
	if len(names) == 0 {
		return
	}
	w.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			w.WriteByte(',')
		}
		w.WriteString(n)
		w.WriteString(`="`)
		w.WriteString(escapeLabel(values[i]))
		w.WriteByte('"')
	}
	w.WriteByte('}')
}

// WritePrometheus renders every registered family in text exposition format
// (version 0.0.4): families in registration order, series in creation
// order, one HELP and TYPE header per family.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	r.mu.RLock()
	fams := append([]*family(nil), r.families...)
	r.mu.RUnlock()
	for _, f := range fams {
		if f.help != "" {
			bw.WriteString("# HELP ")
			bw.WriteString(f.name)
			bw.WriteByte(' ')
			bw.WriteString(escapeHelp(f.help))
			bw.WriteByte('\n')
		}
		bw.WriteString("# TYPE ")
		bw.WriteString(f.name)
		bw.WriteByte(' ')
		bw.WriteString(f.kind.String())
		bw.WriteByte('\n')

		f.mu.RLock()
		series := append([]*series(nil), f.order...)
		f.mu.RUnlock()
		for _, s := range series {
			switch f.kind {
			case KindHistogram:
				leNames := append(append([]string(nil), f.labels...), "le")
				cum := uint64(0)
				for i := range s.counts {
					cum += s.counts[i].Load()
					bound := math.Inf(+1)
					if i < len(f.buckets) {
						bound = f.buckets[i]
					}
					bw.WriteString(f.name)
					bw.WriteString("_bucket")
					writeLabels(bw, leNames, append(append([]string(nil), s.labelValues...), formatFloat(bound)))
					bw.WriteByte(' ')
					bw.WriteString(strconv.FormatUint(cum, 10))
					bw.WriteByte('\n')
				}
				bw.WriteString(f.name)
				bw.WriteString("_sum")
				writeLabels(bw, f.labels, s.labelValues)
				bw.WriteByte(' ')
				bw.WriteString(formatFloat(math.Float64frombits(s.sumBits.Load())))
				bw.WriteByte('\n')
				bw.WriteString(f.name)
				bw.WriteString("_count")
				writeLabels(bw, f.labels, s.labelValues)
				bw.WriteByte(' ')
				bw.WriteString(strconv.FormatUint(s.count.Load(), 10))
				bw.WriteByte('\n')
			default:
				bw.WriteString(f.name)
				writeLabels(bw, f.labels, s.labelValues)
				bw.WriteByte(' ')
				bw.WriteString(formatFloat(s.value()))
				bw.WriteByte('\n')
			}
		}
	}
	return bw.Flush()
}
