package core

import (
	"fmt"
	"strings"
)

// DumpFunctions renders every connection's learned blocking-rate function as
// an aligned text table, sampling the weight domain at the given number of
// columns. It is a debugging aid for operators ("what does the model believe
// right now?"), printed by spe splitter and spe run when balancing.
func DumpFunctions(b *Balancer, columns int) string {
	if columns < 2 {
		columns = 2
	}
	units := b.Units()
	step := units / (columns - 1)
	if step < 1 {
		step = 1
	}
	var sb strings.Builder
	sb.WriteString("conn  weight |")
	for w := 0; w <= units; w += step {
		fmt.Fprintf(&sb, " F(%4d)", w)
	}
	sb.WriteByte('\n')
	weights := b.Weights()
	for j := 0; j < b.Connections(); j++ {
		fmt.Fprintf(&sb, "%4d  %6d |", j, weights[j])
		f := b.Func(j)
		for w := 0; w <= units; w += step {
			fmt.Fprintf(&sb, " %7.3f", f.Predict(w))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
