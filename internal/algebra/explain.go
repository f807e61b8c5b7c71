package algebra

import (
	"fmt"
	"strings"
)

// Explain renders a plan tree as indented text — the textual form of the
// paper's Figure 6 execution scheme.
func Explain(n Node) string {
	var b strings.Builder
	explain(&b, n, 0)
	return b.String()
}

func explain(b *strings.Builder, n Node, depth int) {
	fmt.Fprintf(b, "%s%s\n", strings.Repeat("  ", depth), n.Name())
	for _, c := range n.Children() {
		explain(b, c, depth+1)
	}
}

// Walk visits the plan tree depth-first, parents before children.
func Walk(n Node, f func(Node)) {
	f(n)
	for _, c := range n.Children() {
		Walk(c, f)
	}
}

// Tables returns the distinct base tables referenced by a plan.
func Tables(n Node) []string {
	seen := map[string]bool{}
	var out []string
	Walk(n, func(m Node) {
		var name string
		switch x := m.(type) {
		case *Scan:
			name = x.Table
		case *Fetch1Join:
			name = x.Table
		default:
			return
		}
		if !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	})
	return out
}
