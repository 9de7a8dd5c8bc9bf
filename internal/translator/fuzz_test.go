package translator

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzParse feeds the translator front end arbitrary source, seeded with
// the checked-in programs and the lexer, parser and analysis error
// cases. Parse must return a program or an error, never both and never
// a panic, and every program it accepts must go through Generate in
// both modes without panicking.
func FuzzParse(f *testing.F) {
	files, err := filepath.Glob("testdata/*.op2")
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range files {
		src, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	base := `op_decl_set(10, cells);
op_decl_set(nnode, nodes);
op_decl_map(cells, nodes, 4, cd, pcell);
op_decl_dat(cells, 4, "double", qd, p_q);
op_decl_dat(nodes, 2, "double", NULL, p_x);
op_decl_gbl(1, "double", rms);
op_decl_const(1, "double", gam);
`
	for _, src := range []string{
		// Lexer errors.
		`"unterminated`, `@`, `/`, `/* unterminated`,
		// Parser errors.
		`op_decl_banana(1, x);`,
		`op_decl_set(9, nodes)`,
		`op_decl_set(9, nodes;`,
		`op_decl_set(n, s); op_par_loop(k, "k", s, op_arg_banana(x));`,
		`op_decl_set("9", nodes);`,
		`op_decl_set(99999999999999999999, nodes);`,
		// Analysis errors.
		base + `op_par_loop(k, "k", ghosts, op_arg_dat(p_q, -1, OP_ID, 4, "double", OP_READ));`,
		base + `op_par_loop(k, "k", cells, op_arg_dat(p_q, -1, OP_ID, 3, "double", OP_READ));`,
		base + `op_par_loop(k, "k", cells, op_arg_dat(p_x, 9, pcell, 2, "double", OP_READ));`,
		base + `op_par_loop(k, "k", cells, op_arg_gbl(rms, 1, "double", OP_WRITE));`,
		`op_decl_set(1, x); op_decl_set(2, x);`,
		// Accepted programs.
		base + `op_par_loop(k, "k", cells, op_arg_dat(p_x, 0, pcell, 2, "double", OP_READ),
	op_arg_dat(p_q, -1, OP_ID, 4, "double", OP_RW), op_arg_gbl(rms, 1, "double", OP_INC));`,
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			if p != nil {
				t.Fatal("Parse returned a program alongside its error")
			}
			return
		}
		if p == nil {
			t.Fatal("Parse returned neither a program nor an error")
		}
		for _, mode := range []Mode{ModeForkJoin, ModeDataflow} {
			out, err := Generate(p, "fuzzed", mode, "fuzz.op2")
			if err != nil && strings.Contains(err.Error(), "(bug)") {
				t.Fatalf("Generate(%v) produced unformattable code for an accepted program: %v", mode, err)
			}
			if err == nil && len(out) == 0 {
				t.Fatalf("Generate(%v) returned no code and no error", mode)
			}
		}
	})
}
