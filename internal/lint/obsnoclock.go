package lint

import (
	"go/ast"
	"go/types"
)

// ObsNoClock enforces the "observation is free" invariant structurally
// (DESIGN.md §9): enabling tracing or metrics must not perturb the
// deterministic virtual-time execution it observes. Two checks:
//
//  1. internal/obs must stay a leaf package — it may not import the
//     engine packages (vclock, exec, core, diskmodel), so nothing in it
//     can even name a clock-advancing API.
//  2. Any callback handed to an obs API (Registry.RegisterFunc gauges,
//     or any func-typed argument to an obs function) must not reach a
//     vclock-advancing call — Clock.Sleep/SleepUntil/Park/Go/
//     YieldOrdered/WaitSignal/Signal, Mailbox.Post/Wait, or the executor's CPU
//     charging helpers — directly or through same-package calls.
//
// Wall-clock reads inside internal/obs are vclockpurity's findings,
// like anywhere else in the module.
var ObsNoClock = &Analyzer{
	Name: "obsnoclock",
	Doc: "observability must never touch the virtual clock: obs stays a leaf package " +
		"and obs callbacks (RegisterFunc gauges) may not reach clock-advancing APIs",
	Run: runObsNoClock,
}

// enginePackages may not be imported by internal/obs.
var enginePackages = []string{
	"internal/vclock",
	"internal/exec",
	"internal/core",
	"internal/diskmodel",
}

// clockAdvancingMethods are the vclock APIs that advance, charge or
// gate virtual time.
var clockAdvancingMethods = map[string]bool{
	"Sleep":        true,
	"SleepUntil":   true,
	"Park":         true,
	"Go":           true,
	"Run":          true,
	"YieldOrdered": true,
	"WaitSignal":   true,
	"Signal":       true,
	"Post":         true, // Mailbox.Post
	"Wait":         true, // Mailbox.Wait
}

// cpuChargingFuncs are the executor's virtual-CPU accounting helpers:
// the charge path, which adds to a slave's CPU debt, sleepUntil, which
// stages a wait into its sleep program, and settle, which stages the
// debt and parks the program. Calling one from an observability
// callback would make tracing change the simulated timeline.
var cpuChargingFuncs = map[string]bool{
	"chargeCPU":  true,
	"chargePs":   true,
	"sleepUntil": true,
	"settle":     true,
}

func runObsNoClock(pass *Pass) error {
	if pathHasSuffix(pass.Pkg.Path(), "internal/obs") {
		for _, file := range pass.Files {
			for _, imp := range file.Imports {
				path := importPath(imp)
				for _, engine := range enginePackages {
					if pathHasSuffix(path, engine) {
						pass.Reportf(imp.Pos(),
							"internal/obs imports %s: obs must stay a leaf package so instrumentation "+
								"can never advance the virtual clock (observation-is-free, DESIGN.md §9/§11)",
							path)
					}
				}
			}
		}
		return nil
	}

	reach := pass.CallGraph().Reacher(clockAPIName)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(pass.TypesInfo, call)
			if callee == nil || !pathHasSuffix(funcPkgPath(callee), "internal/obs") {
				return true
			}
			for _, arg := range call.Args {
				if culprit := reach.FromCallback(arg); culprit != "" {
					pass.Reportf(arg.Pos(),
						"callback passed to obs.%s reaches vclock-advancing API %s: "+
							"observation must be free — instrumentation cannot advance, charge or gate "+
							"the virtual clock (DESIGN.md §9/§11)",
						callee.Name(), culprit)
				}
			}
			return true
		})
	}
	return nil
}

func importPath(imp *ast.ImportSpec) string {
	path := imp.Path.Value
	if len(path) >= 2 {
		path = path[1 : len(path)-1]
	}
	return path
}

// clockAPIName classifies fn as a clock-advancing API, returning a
// human-readable name, or "".
func clockAPIName(fn *types.Func) string {
	if pathHasSuffix(funcPkgPath(fn), "internal/vclock") && clockAdvancingMethods[fn.Name()] {
		if recv := recvBaseName(fn); recv != "" {
			return "vclock." + recv + "." + fn.Name()
		}
		return "vclock." + fn.Name()
	}
	if cpuChargingFuncs[fn.Name()] && funcPkgPath(fn) != "" {
		if recv := recvBaseName(fn); recv != "" {
			return recv + "." + fn.Name()
		}
		return fn.Name()
	}
	return ""
}
