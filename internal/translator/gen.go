package translator

import (
	"fmt"
	"go/format"
	gotoken "go/token"
	"sort"
	"strings"
)

// Mode selects the code-generation target, the axis the paper changes: the
// original translator emits OpenMP-style synchronous loops; the redesigned
// one emits HPX dataflow loops returning futures.
type Mode int

const (
	// ModeForkJoin generates one synchronous method per loop (the
	// "#pragma omp parallel for" shape: control returns only after the
	// loop's implicit barrier).
	ModeForkJoin Mode = iota
	// ModeDataflow generates one asynchronous method per loop returning
	// an *hpx.Future (Fig. 9: "p_qold is returned as a future from each
	// kernel function after calling op_par_loop").
	ModeDataflow
)

func (m Mode) String() string {
	if m == ModeDataflow {
		return "dataflow"
	}
	return "forkjoin"
}

// ParseMode converts a CLI string to a Mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "forkjoin", "openmp", "omp":
		return ModeForkJoin, nil
	case "dataflow", "hpx":
		return ModeDataflow, nil
	default:
		return 0, fmt.Errorf("translator: unknown mode %q (want forkjoin or dataflow)", s)
	}
}

// goName converts an OP2 identifier (snake_case C style) to an exported Go
// name: save_soln -> SaveSoln, p_x -> PX.
func goName(s string) string {
	var b strings.Builder
	up := true
	for _, r := range s {
		if r == '_' {
			up = true
			continue
		}
		if up {
			b.WriteString(strings.ToUpper(string(r)))
			up = false
		} else {
			b.WriteRune(r)
		}
	}
	if b.Len() == 0 {
		return "X"
	}
	return b.String()
}

var accGo = map[AccessMode]string{
	AccRead:  "core.Read",
	AccWrite: "core.Write",
	AccRW:    "core.RW",
	AccInc:   "core.Inc",
	AccMin:   "core.Min",
	AccMax:   "core.Max",
}

// Generate emits Go source for the parsed program in the given mode. The
// output declares a Kernels interface (one method per op_par_loop, one
// []float64 view per argument), a Params struct for runtime inputs (set
// sizes, map tables, dat initial values, constants), a Program struct
// holding the OP2 objects, a New constructor performing all declarations,
// and one method per loop.
func Generate(p *Program, pkg string, mode Mode, source string) ([]byte, error) {
	if pkg == "" {
		return nil, fmt.Errorf("translator: package name required")
	}
	if err := Analyze(p); err != nil {
		return nil, fmt.Errorf("translator: %w", err)
	}
	if err := checkNameCollisions(p); err != nil {
		return nil, err
	}

	var b strings.Builder
	w := func(format string, args ...any) { fmt.Fprintf(&b, format, args...) }

	w("// Code generated by op2gen (mode %s) from %s. DO NOT EDIT.\n\n", mode, sourceLabel(source))
	w("package %s\n\n", pkg)
	w("import (\n")
	w("\t\"op2hpx/internal/core\"\n")
	w(")\n\n")

	genKernelsInterface(w, p)
	genParams(w, p)
	genProgramStruct(w, p, mode)
	genConstructor(w, p)
	for i := range p.Loops {
		genLoopBuilder(w, p, &p.Loops[i])
		genLoopMethod(w, &p.Loops[i], mode)
	}
	genSyncHelper(w, p, mode)

	src, err := format.Source([]byte(b.String()))
	if err != nil {
		return nil, fmt.Errorf("translator: generated code does not format (bug): %w\n--- generated ---\n%s", err, b.String())
	}
	return src, nil
}

func sourceLabel(source string) string {
	if source == "" {
		return "OP2 source"
	}
	return source
}

// checkNameCollisions rejects programs whose identifiers map to the same
// exported Go name (e.g. p_q and pq), and programs with a name that has
// no valid Go name at all: an identifier such as _1 (its Go name would
// start with a digit) or a loop name string such as "a b".
func checkNameCollisions(p *Program) error {
	valid := func(name string) error {
		if g := goName(name); !gotoken.IsIdentifier(g) {
			return fmt.Errorf("translator: %q has no valid Go name (got %q)", name, g)
		}
		return nil
	}
	seen := map[string]string{}
	check := func(name string) error {
		if err := valid(name); err != nil {
			return err
		}
		g := goName(name)
		if prev, ok := seen[g]; ok && prev != name {
			return fmt.Errorf("translator: identifiers %q and %q both map to Go name %q", prev, name, g)
		}
		seen[g] = name
		return nil
	}
	var names []string
	for _, s := range p.Sets {
		if err := check(s.Name); err != nil {
			return err
		}
		names = append(names, s.SizeParam)
	}
	for _, m := range p.Maps {
		if err := check(m.Name); err != nil {
			return err
		}
		names = append(names, m.Data)
	}
	for _, d := range p.Dats {
		if err := check(d.Name); err != nil {
			return err
		}
		names = append(names, d.Data)
	}
	for _, g := range p.Gbls {
		if err := check(g.Name); err != nil {
			return err
		}
	}
	for _, c := range p.Consts {
		if err := check(c.Name); err != nil {
			return err
		}
	}
	for _, l := range p.Loops {
		names = append(names, l.Name, l.Kernel)
	}
	for _, name := range names {
		if name == "" {
			continue // no runtime parameter
		}
		if err := valid(name); err != nil {
			return err
		}
	}
	return nil
}

func genKernelsInterface(w func(string, ...any), p *Program) {
	w("// Kernels supplies the user kernels, one method per op_par_loop. Each\n")
	w("// argument is the per-element view the OP2 runtime passes to the kernel.\n")
	w("type Kernels interface {\n")
	for _, l := range p.Loops {
		params := make([]string, len(l.Args))
		for i := range l.Args {
			params[i] = fmt.Sprintf("arg%d []float64", i)
		}
		w("\t%s(%s)\n", goName(l.Kernel), strings.Join(params, ", "))
	}
	w("}\n\n")
}

// paramFields returns the Params struct fields in declaration order.
func paramFields(p *Program) (ints []string, int32s []string, floats []string) {
	seen := map[string]bool{}
	add := func(list *[]string, name string) {
		if name == "" || seen[name] {
			return
		}
		seen[name] = true
		*list = append(*list, name)
	}
	for _, s := range p.Sets {
		if s.SizeParam != "" {
			add(&ints, s.SizeParam)
		}
	}
	for _, m := range p.Maps {
		add(&int32s, m.Data)
	}
	for _, d := range p.Dats {
		add(&floats, d.Data)
	}
	for _, c := range p.Consts {
		add(&floats, c.Name)
	}
	return
}

func genParams(w func(string, ...any), p *Program) {
	ints, int32s, floats := paramFields(p)
	w("// Params carries the runtime inputs of the OP2 declarations: set sizes,\n")
	w("// map index tables, dat initial values and constants.\n")
	w("type Params struct {\n")
	for _, n := range ints {
		w("\t%s int\n", goName(n))
	}
	for _, n := range int32s {
		w("\t%s []int32\n", goName(n))
	}
	for _, n := range floats {
		w("\t%s []float64\n", goName(n))
	}
	w("}\n\n")
}

func genProgramStruct(w func(string, ...any), p *Program, mode Mode) {
	w("// Program holds the declared OP2 objects and the executor running its\n")
	if mode == ModeDataflow {
		w("// loops asynchronously: every loop method returns a future and the\n")
		w("// dependency graph between loops is derived from their access\n")
		w("// descriptors.\n")
	} else {
		w("// loops synchronously with an implicit barrier after each loop.\n")
	}
	w("type Program struct {\n")
	w("\tEx *core.Executor\n")
	w("\tK  Kernels\n\n")
	for _, s := range p.Sets {
		w("\t%s *core.Set\n", goName(s.Name))
	}
	for _, m := range p.Maps {
		w("\t%s *core.Map\n", goName(m.Name))
	}
	for _, d := range p.Dats {
		w("\t%s *core.Dat\n", goName(d.Name))
	}
	for _, g := range p.Gbls {
		w("\t%s *core.Global\n", goName(g.Name))
	}
	for _, c := range p.Consts {
		w("\t%s []float64 // op_decl_const\n", goName(c.Name))
	}
	w("\n\tloops struct {\n")
	for _, l := range p.Loops {
		w("\t\t%s *core.Loop\n", goName(l.Name))
	}
	w("\t}\n")
	w("}\n\n")
}

func genConstructor(w func(string, ...any), p *Program) {
	w("// New performs every op_decl_* of the program and prepares its loops.\n")
	w("func New(ex *core.Executor, k Kernels, params Params) (*Program, error) {\n")
	w("\tpr := &Program{Ex: ex, K: k}\n")
	w("\tvar err error\n")
	for _, s := range p.Sets {
		size := fmt.Sprintf("%d", s.Size)
		if s.SizeParam != "" {
			size = "params." + goName(s.SizeParam)
		}
		w("\tif pr.%s, err = core.DeclSet(%s, %q); err != nil {\n\t\treturn nil, err\n\t}\n",
			goName(s.Name), size, s.Name)
	}
	for _, m := range p.Maps {
		w("\tif pr.%s, err = core.DeclMap(pr.%s, pr.%s, %d, params.%s, %q); err != nil {\n\t\treturn nil, err\n\t}\n",
			goName(m.Name), goName(m.From), goName(m.To), m.Dim, goName(m.Data), m.Name)
	}
	for _, d := range p.Dats {
		data := "nil"
		if d.Data != "" {
			data = "params." + goName(d.Data)
		}
		w("\tif pr.%s, err = core.DeclDat(pr.%s, %d, %s, %q); err != nil {\n\t\treturn nil, err\n\t}\n",
			goName(d.Name), goName(d.Set), d.Dim, data, d.Name)
	}
	for _, g := range p.Gbls {
		w("\tif pr.%s, err = core.DeclGlobal(%d, nil, %q); err != nil {\n\t\treturn nil, err\n\t}\n",
			goName(g.Name), g.Dim, g.Name)
	}
	for _, c := range p.Consts {
		w("\tpr.%s = params.%s\n", goName(c.Name), goName(c.Name))
	}
	for _, l := range p.Loops {
		w("\tpr.loops.%s = pr.build%s()\n", goName(l.Name), goName(l.Name))
	}
	w("\treturn pr, nil\n")
	w("}\n\n")
}

func genLoopBuilder(w func(string, ...any), p *Program, l *LoopDecl) {
	w("// build%s assembles the op_par_loop(%s, %q, %s, ...) descriptor.\n",
		goName(l.Name), l.Kernel, l.Name, l.Set)
	w("func (pr *Program) build%s() *core.Loop {\n", goName(l.Name))
	w("\treturn &core.Loop{\n")
	w("\t\tName: %q,\n", l.Name)
	w("\t\tSet:  pr.%s,\n", goName(l.Set))
	w("\t\tArgs: []core.Arg{\n")
	for _, a := range l.Args {
		if a.Kind == ArgKindGbl {
			w("\t\t\tcore.ArgGbl(pr.%s, %s),\n", goName(a.Dat), accGo[a.Acc])
			continue
		}
		mp := "nil"
		idx := "core.IDIdx"
		if a.Map != "" {
			mp = "pr." + goName(a.Map)
			idx = fmt.Sprintf("%d", a.Idx)
		}
		w("\t\t\tcore.ArgDat(pr.%s, %s, %s, %s),\n", goName(a.Dat), idx, mp, accGo[a.Acc])
	}
	w("\t\t},\n")
	views := make([]string, len(l.Args))
	for i := range l.Args {
		views[i] = fmt.Sprintf("v[%d]", i)
	}
	w("\t\tKernel: func(v [][]float64) { pr.K.%s(%s) },\n", goName(l.Kernel), strings.Join(views, ", "))
	w("\t}\n")
	w("}\n\n")
}

func genLoopMethod(w func(string, ...any), l *LoopDecl, mode Mode) {
	name := goName(l.Name)
	if mode == ModeDataflow {
		w("// %s issues the %q loop asynchronously and returns its future; the\n", name, l.Name)
		w("// loop starts once the futures of all dats it accesses are ready.\n")
		w("func (pr *Program) %s() core.Future {\n", name)
		w("\treturn pr.Ex.RunAsync(pr.loops.%s)\n", name)
		w("}\n\n")
		return
	}
	w("// %s executes the %q loop and returns after its implicit barrier.\n", name, l.Name)
	w("func (pr *Program) %s() error {\n", name)
	w("\treturn pr.Ex.Run(pr.loops.%s)\n", name)
	w("}\n\n")
}

func genSyncHelper(w func(string, ...any), p *Program, mode Mode) {
	if mode != ModeDataflow {
		return
	}
	w("// Sync waits for every outstanding loop on every dat and global of the\n")
	w("// program — the host-side fence ending a dataflow section.\n")
	w("func (pr *Program) Sync() error {\n")
	var names []string
	for _, d := range p.Dats {
		names = append(names, goName(d.Name))
	}
	sort.Strings(names)
	for _, n := range names {
		w("\tif err := pr.%s.Sync(); err != nil {\n\t\treturn err\n\t}\n", n)
	}
	var gbls []string
	for _, g := range p.Gbls {
		gbls = append(gbls, goName(g.Name))
	}
	sort.Strings(gbls)
	for _, n := range gbls {
		w("\tif err := pr.%s.Sync(); err != nil {\n\t\treturn err\n\t}\n", n)
	}
	w("\treturn nil\n")
	w("}\n")
}
