// Command crnsynth compiles probabilistic-behaviour specifications into
// chemical reaction networks (the paper's synthesis method) and emits them
// in either the paper's notation or the machine-readable .crn format.
//
// Modes (exactly one):
//
//	-dist w1,w2,...      stochastic module over the weighted outcomes
//	-lambda              the paper's Figure 4 lysis/lysogeny model
//	-response a,b,cinv   lambda-style model for P% = a + b·log2(MOI) + MOI/cinv
//	-module M            deterministic module: exp2 | log2 | power | isolation
//	-poly c0,c1,...      polynomial module: Y = c0 + c1·X + c2·X² + …
//
// Flags:
//
//	-gamma G   -dist only: rate separation γ (default 1000)
//	-crn       emit parseable .crn instead of paper notation
//
// A flag the chosen mode does not read (see modes), a second mode flag
// included, exits 2 naming it, before any output.
//
// Examples:
//
//	crnsynth -dist 30,40,30
//	crnsynth -lambda -crn > lambda.crn
//	crnsynth -response 20,4,8
//	crnsynth -module log2
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"

	"stochsynth/internal/chem"
	"stochsynth/internal/cli"
	"stochsynth/internal/lambda"
	"stochsynth/internal/synth"
)

// modes lists crnsynth's modes in precedence order and the flags each
// reads. Only -dist builds a stochastic module; every other mode's network
// has its rates fixed, so only -dist reads -gamma.
var modes = []cli.Mode{
	{Name: "-dist", Reads: []string{"dist", "gamma", "crn"}},
	{Name: "-lambda", Reads: []string{"lambda", "crn"}},
	{Name: "-response", Reads: []string{"response", "crn"}},
	{Name: "-module", Reads: []string{"module", "crn"}},
	{Name: "-poly", Reads: []string{"poly", "crn"}},
}

func main() {
	var (
		dist     = flag.String("dist", "", "comma-separated outcome weights, e.g. 30,40,30")
		doLambda = flag.Bool("lambda", false, "emit the paper's Figure 4 model")
		response = flag.String("response", "", "a,b,cinv for P% = a + b·log2(MOI) + MOI/cinv")
		module   = flag.String("module", "", "deterministic module: exp2|log2|power|isolation")
		poly     = flag.String("poly", "", "polynomial coefficients c0,c1,... (Y = Σ ck·X^k)")
		gamma    = flag.Float64("gamma", 1000, "rate separation γ of -dist")
		asCRN    = flag.Bool("crn", false, "emit .crn format instead of paper notation")
	)
	flag.Parse()

	chosen := slices.Index([]bool{*dist != "", *doLambda, *response != "", *module != "", *poly != ""}, true)
	if chosen < 0 {
		fmt.Fprintln(os.Stderr, "crnsynth: choose exactly one of -dist, -lambda, -response, -module, -poly")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if modes[chosen].Refuse(flag.CommandLine, "crnsynth", func(string) string { return "" }) {
		os.Exit(2)
	}

	var net *chem.Network
	switch {
	case *dist != "":
		weights, err := parseInts(*dist)
		if err != nil {
			fatal(err)
		}
		outcomes := make([]synth.Outcome, len(weights))
		for i, w := range weights {
			outcomes[i] = synth.Outcome{Weight: w}
		}
		mod, err := synth.StochasticSpec{Outcomes: outcomes, Gamma: *gamma}.Build()
		if err != nil {
			fatal(err)
		}
		p := mod.Probabilities()
		fmt.Fprintf(os.Stderr, "programmed distribution: %v\n", p)
		net = mod.Net
	case *doLambda:
		net = lambda.SyntheticModel().Net
	case *response != "":
		vals, err := parseInts(*response)
		if err != nil || len(vals) != 3 {
			fatal(fmt.Errorf("-response wants a,b,cinv (got %q)", *response))
		}
		m, err := lambda.Synthesize(lambda.SynthesisParams{A: vals[0], B: vals[1], CInv: vals[2]})
		if err != nil {
			fatal(err)
		}
		net = m.Net
	case *module != "":
		var err error
		net, err = buildModule(*module)
		if err != nil {
			fatal(err)
		}
	case *poly != "":
		coeffs, err := parseInts(*poly)
		if err != nil {
			fatal(err)
		}
		net, err = synth.PolynomialSpec{Coeffs: coeffs, X: "x", Y: "y"}.Build()
		if err != nil {
			fatal(err)
		}
	}

	if *asCRN {
		os.Stdout.Write(chem.AppendCRN(nil, net))
	} else {
		fmt.Print(chem.Format(net))
	}
}

func buildModule(kind string) (*chem.Network, error) {
	switch kind {
	case "exp2":
		return synth.Exp2Spec{X: "x", Y: "y"}.Build()
	case "log2":
		return synth.Log2Spec{X: "x", Y: "y"}.Build()
	case "power":
		return synth.PowerSpec{X: "x", P: "p", Y: "y"}.Build()
	case "isolation":
		return synth.IsolationSpec{Y: "y", C: "c"}.Build()
	default:
		return nil, fmt.Errorf("unknown module %q (want exp2|log2|power|isolation)", kind)
	}
}

func parseInts(s string) ([]int64, error) {
	parts := strings.Split(s, ",")
	out := make([]int64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("invalid integer %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "crnsynth:", err)
	os.Exit(1)
}
