package experiments

import (
	"fmt"
	"time"

	"repro/internal/baselines"
	"repro/internal/datasets"
	"repro/internal/errgen"
	"repro/internal/eval"
	"repro/internal/llm"
)

// Fig6Result holds Raha's active-learning curve per dataset: F1 at each
// labeling budget, plus ZeroED's (label-free) reference F1.
type Fig6Result struct {
	Budgets  []int
	Datasets []string
	// F1[dataset][budgetIndex]
	F1 map[string][]float64
	// ZeroEDF1[dataset] is the reference line.
	ZeroEDF1 map[string]float64
	// CrossAt[dataset] is the smallest budget at which Raha meets or beats
	// ZeroED, or 0 if it never does within the sweep.
	CrossAt map[string]int
}

// Fig6 reproduces the Raha-vs-labels curve of Fig. 6.
func Fig6(o Options) (*Fig6Result, error) {
	o = o.withDefaults()
	res := &Fig6Result{
		Budgets:  []int{1, 5, 10, 15, 20, 25, 30, 35, 40, 45},
		F1:       map[string][]float64{},
		ZeroEDF1: map[string]float64{},
		CrossAt:  map[string]int{},
	}
	fmt.Fprintln(o.Out, "Fig. 6: Raha performance via active learning (#labeled tuples vs F1)")
	for _, b := range comparisonBenches(o) {
		res.Datasets = append(res.Datasets, b.Name)
		zm, _, err := runZeroED(b, o.zeroedConfig())
		if err != nil {
			return nil, err
		}
		res.ZeroEDF1[b.Name] = zm.F1

		mask, err := b.Mask()
		if err != nil {
			return nil, err
		}
		oracle := baselines.LabelOracle(func(row int) []bool { return mask[row] })
		var curve []float64
		for _, budget := range res.Budgets {
			raha := baselines.NewRaha(oracle)
			raha.LabelBudget = budget
			raha.Seed = o.Seed
			m, _, err := runMethod(raha, b)
			if err != nil {
				return nil, err
			}
			curve = append(curve, m.F1)
			if res.CrossAt[b.Name] == 0 && m.F1 >= zm.F1 {
				res.CrossAt[b.Name] = budget
			}
		}
		res.F1[b.Name] = curve
		fmt.Fprintf(o.Out, "%-12s ZeroED=%.3f Raha:", b.Name, zm.F1)
		for i, f := range curve {
			fmt.Fprintf(o.Out, " %d:%.3f", res.Budgets[i], f)
		}
		fmt.Fprintln(o.Out)
	}
	return res, nil
}

// Fig7Result holds runtimes: PerDataset[method][dataset] and the Tax
// size sweep PerSize[method][sizeIndex].
type Fig7Result struct {
	Datasets   []string
	Methods    []string
	PerDataset map[string]map[string]time.Duration
	TaxSizes   []int
	PerSize    map[string][]time.Duration
}

// Fig7 reproduces the runtime evaluation (Fig. 7): end-to-end wall-clock
// across datasets (a) and across Tax subset sizes (b).
func Fig7(o Options) (*Fig7Result, error) {
	o = o.withDefaults()
	res := &Fig7Result{
		PerDataset: map[string]map[string]time.Duration{},
		PerSize:    map[string][]time.Duration{},
	}
	fmt.Fprintln(o.Out, "Fig. 7a: runtime across datasets")
	benches := comparisonBenches(o)
	for _, b := range benches {
		res.Datasets = append(res.Datasets, b.Name)
	}
	record := func(method, ds string, d time.Duration) {
		if res.PerDataset[method] == nil {
			res.PerDataset[method] = map[string]time.Duration{}
			res.Methods = append(res.Methods, method)
		}
		res.PerDataset[method][ds] = d
	}
	for _, b := range benches {
		methods, err := methodSet(b, o.Seed)
		if err != nil {
			return nil, err
		}
		for _, m := range methods {
			_, el, err := runMethod(m, b)
			if err != nil {
				return nil, err
			}
			record(m.Name(), b.Name, el)
		}
		_, zres, err := runZeroED(b, o.zeroedConfig())
		if err != nil {
			return nil, err
		}
		record("ZeroED", b.Name, zres.Runtime)
	}
	for _, m := range res.Methods {
		fmt.Fprintf(o.Out, "%-12s", m)
		for _, d := range res.Datasets {
			fmt.Fprintf(o.Out, " %s:%v", d, res.PerDataset[m][d].Round(time.Millisecond))
		}
		fmt.Fprintln(o.Out)
	}

	// Tax subset sweep (50k..200k scaled, or Options.TaxSizes).
	fmt.Fprintln(o.Out, "Fig. 7b: runtime across Tax subset sizes")
	res.TaxSizes = o.taxSizes()
	for _, n := range res.TaxSizes {
		b, zres, err := taxRun(o, n)
		if err != nil {
			return nil, err
		}
		methods, err := methodSet(b, o.Seed)
		if err != nil {
			return nil, err
		}
		for _, m := range methods {
			_, el, err := runMethod(m, b)
			if err != nil {
				return nil, err
			}
			res.PerSize[m.Name()] = append(res.PerSize[m.Name()], el)
		}
		res.PerSize["ZeroED"] = append(res.PerSize["ZeroED"], zres.Runtime)
		fmt.Fprintf(o.Out, "n=%d:", n)
		for _, m := range res.Methods {
			if ts := res.PerSize[m]; len(ts) > 0 {
				fmt.Fprintf(o.Out, " %s:%v", m, ts[len(ts)-1].Round(time.Millisecond))
			}
		}
		fmt.Fprintln(o.Out)
	}
	return res, nil
}

// Fig8Result holds token costs for ZeroED and FM_ED: input/output tokens
// per dataset and per Tax subset size.
type Fig8Result struct {
	Datasets []string
	// PerDataset[method][dataset]
	PerDataset map[string]map[string]llm.Usage
	TaxSizes   []int
	PerSize    map[string][]llm.Usage
}

// Fig8 reproduces the token-consumption evaluation (Fig. 8).
func Fig8(o Options) (*Fig8Result, error) {
	o = o.withDefaults()
	res := &Fig8Result{
		PerDataset: map[string]map[string]llm.Usage{"ZeroED": {}, "FM_ED": {}},
		PerSize:    map[string][]llm.Usage{},
	}
	fmt.Fprintln(o.Out, "Fig. 8a: token cost across datasets (input/output)")
	for _, b := range comparisonBenches(o) {
		res.Datasets = append(res.Datasets, b.Name)
		_, zres, err := runZeroED(b, o.zeroedConfig())
		if err != nil {
			return nil, err
		}
		res.PerDataset["ZeroED"][b.Name] = zres.Usage

		client := llm.NewClient(llm.Qwen72B)
		fmed := baselines.NewFMED(client, b.KB)
		if _, err := fmed.Detect(b.Dirty); err != nil {
			return nil, err
		}
		res.PerDataset["FM_ED"][b.Name] = fmed.Usage()
		z, f := zres.Usage, fmed.Usage()
		fmt.Fprintf(o.Out, "%-12s ZeroED in=%d out=%d | FM_ED in=%d out=%d\n",
			b.Name, z.InputTokens, z.OutputTokens, f.InputTokens, f.OutputTokens)
	}

	fmt.Fprintln(o.Out, "Fig. 8b: token cost across Tax subset sizes")
	res.TaxSizes = o.taxSizes()
	for _, n := range res.TaxSizes {
		b, zres, err := taxRun(o, n)
		if err != nil {
			return nil, err
		}
		res.PerSize["ZeroED"] = append(res.PerSize["ZeroED"], zres.Usage)

		client := llm.NewClient(llm.Qwen72B)
		fmed := baselines.NewFMED(client, b.KB)
		if _, err := fmed.Detect(b.Dirty); err != nil {
			return nil, err
		}
		res.PerSize["FM_ED"] = append(res.PerSize["FM_ED"], fmed.Usage())
		z := zres.Usage
		f := fmed.Usage()
		reduction := 1 - float64(z.Total())/float64(f.Total())
		fmt.Fprintf(o.Out, "n=%d ZeroED=%d FM_ED=%d (reduction %.1f%%)\n",
			n, z.Total(), f.Total(), 100*reduction)
	}
	return res, nil
}

// SweepResult holds a one-parameter sweep of ZeroED: Metrics[dataset][i]
// for parameter Values[i].
type SweepResult struct {
	Datasets []string
	Values   []float64
	Metrics  map[string][]eval.Metrics
}

// Fig9 reproduces the label-rate sweep (Fig. 9): ZeroED at 1%..5% LLM
// label rate on each dataset.
func Fig9(o Options) (*SweepResult, error) {
	o = o.withDefaults()
	res := &SweepResult{Values: []float64{0.01, 0.02, 0.03, 0.04, 0.05}, Metrics: map[string][]eval.Metrics{}}
	fmt.Fprintln(o.Out, "Fig. 9: performance under different LLM label rates")
	for _, b := range comparisonBenches(o) {
		res.Datasets = append(res.Datasets, b.Name)
		var ms []eval.Metrics
		for _, rate := range res.Values {
			cfg := o.zeroedConfig()
			cfg.LabelRate = rate
			m, _, err := runZeroED(b, cfg)
			if err != nil {
				return nil, err
			}
			ms = append(ms, m)
		}
		res.Metrics[b.Name] = ms
		fmt.Fprintf(o.Out, "%-12s", b.Name)
		for i, m := range ms {
			fmt.Fprintf(o.Out, " %d%%:%.3f", int(res.Values[i]*100), m.F1)
		}
		fmt.Fprintln(o.Out)
	}
	return res, nil
}

// Fig10 reproduces the correlated-attribute sweep (Fig. 10): ZeroED with
// 1..5 correlated attributes on each dataset.
func Fig10(o Options) (*SweepResult, error) {
	o = o.withDefaults()
	res := &SweepResult{Values: []float64{1, 2, 3, 4, 5}, Metrics: map[string][]eval.Metrics{}}
	fmt.Fprintln(o.Out, "Fig. 10: performance under different correlated attribute numbers")
	for _, b := range comparisonBenches(o) {
		res.Datasets = append(res.Datasets, b.Name)
		var ms []eval.Metrics
		for _, k := range res.Values {
			cfg := o.zeroedConfig()
			cfg.CorrK = int(k)
			m, _, err := runZeroED(b, cfg)
			if err != nil {
				return nil, err
			}
			ms = append(ms, m)
		}
		res.Metrics[b.Name] = ms
		fmt.Fprintf(o.Out, "%-12s", b.Name)
		for i, m := range ms {
			fmt.Fprintf(o.Out, " k=%d:%.3f", int(res.Values[i]), m.F1)
		}
		fmt.Fprintln(o.Out)
	}
	return res, nil
}

// Fig11Result holds per-error-type F1 for every method on the Beers
// scenarios: F1[method][scenario].
type Fig11Result struct {
	Scenarios []string
	Methods   []string
	F1        map[string]map[string]float64
}

// Fig11 reproduces the error-scenario evaluation (Fig. 11): the Beers
// dataset re-injected with one error type at a time (plus the mixed "ME"
// scenario), scored for every method.
func Fig11(o Options) (*Fig11Result, error) {
	o = o.withDefaults()
	res := &Fig11Result{F1: map[string]map[string]float64{}}
	clean := datasets.Beers(o.scaledSize(defaultSizes["Beers"]), o.Seed).Clean

	type scenario struct {
		name string
		spec errgen.Spec
	}
	var scenarios []scenario
	rates := map[errgen.Type]float64{
		errgen.Typo: 0.0243, errgen.Missing: 0.009, errgen.PatternViolation: 0.0914,
		errgen.RuleViolation: 0.0112, errgen.Outlier: 0.0109,
	}
	for _, t := range errgen.AllTypes() {
		sp := errgen.SingleTypeSpec(t, rates[t], o.Seed+2)
		if t == errgen.RuleViolation {
			sp.FDPairs = [][2]int{{6, 7}, {6, 8}, {6, 9}}
		}
		if t == errgen.Outlier {
			sp.NumericCols = []int{3, 4}
		}
		scenarios = append(scenarios, scenario{string(t), sp})
	}
	me := errgen.MixedSpec(0.0049*4, o.Seed+2)
	scenarios = append(scenarios, scenario{"ME", me})

	fmt.Fprintln(o.Out, "Fig. 11: performance vs error types on Beers")
	for _, sc := range scenarios {
		res.Scenarios = append(res.Scenarios, sc.name)
		dirty, _ := errgen.Inject(clean, sc.spec)
		b := &datasets.Bench{Name: "Beers-" + sc.name, Clean: clean, Dirty: dirty,
			KB: datasets.Beers(200, o.Seed).KB, FDPairs: [][2]int{{6, 7}, {6, 8}, {6, 9}}}

		record := func(method string, f1 float64) {
			if res.F1[method] == nil {
				res.F1[method] = map[string]float64{}
				res.Methods = append(res.Methods, method)
			}
			res.F1[method][sc.name] = f1
		}
		methods, err := methodSet(b, o.Seed)
		if err != nil {
			return nil, err
		}
		for _, m := range methods {
			met, _, err := runMethod(m, b)
			if err != nil {
				return nil, err
			}
			record(m.Name(), met.F1)
		}
		met, _, err := runZeroED(b, o.zeroedConfig())
		if err != nil {
			return nil, err
		}
		record("ZeroED", met.F1)
	}
	for _, m := range res.Methods {
		fmt.Fprintf(o.Out, "%-12s", m)
		for _, sc := range res.Scenarios {
			fmt.Fprintf(o.Out, " %s:%.3f", sc, res.F1[m][sc])
		}
		fmt.Fprintln(o.Out)
	}
	return res, nil
}
