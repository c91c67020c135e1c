package flow

import (
	"context"
	"errors"
	"strings"
	"testing"

	"cnfetdk/internal/synth"
)

func TestRegistryCircuitsBuildAndVerify(t *testing.T) {
	cs := Circuits()
	if len(cs) < 4 {
		t.Fatalf("registry holds %d circuits, want >= 4", len(cs))
	}
	for _, c := range cs {
		nl, err := c.Build()
		if err != nil {
			t.Fatalf("%s: build: %v", c.Name, err)
		}
		if len(nl.Instances) == 0 || len(nl.Outputs) == 0 {
			t.Fatalf("%s: empty netlist", c.Name)
		}
		if c.Spec != nil {
			// Honor each circuit's sample bound: rca8's 17 inputs make
			// the exhaustive scan 131072 vectors.
			if err := nl.VerifySampled(c.Spec(), c.SpecSamples); err != nil {
				t.Fatalf("%s: spec verification: %v", c.Name, err)
			}
		}
		// The default stimulus must cover the inputs and toggle at
		// least one output — the contract the delay analysis relies on.
		lo, err := stimulusEnv(nl, c.Stimulus, false)
		if err != nil {
			t.Fatalf("%s: stimulus: %v", c.Name, err)
		}
		hi, _ := stimulusEnv(nl, c.Stimulus, true)
		loV, err := nl.Evaluate(lo)
		if err != nil {
			t.Fatalf("%s: evaluate: %v", c.Name, err)
		}
		hiV, _ := nl.Evaluate(hi)
		toggles := false
		for _, out := range nl.Outputs {
			if loV[out] != hiV[out] {
				toggles = true
			}
		}
		if !toggles {
			t.Errorf("%s: stimulus toggles no output", c.Name)
		}
	}
}

func TestLookupCircuitUnknown(t *testing.T) {
	if _, err := LookupCircuit("nonesuch"); !errors.Is(err, ErrUnknownCircuit) {
		t.Fatalf("err = %v, want ErrUnknownCircuit", err)
	}
}

func TestRegisterCircuitDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration must panic")
		}
	}()
	RegisterCircuit(Circuit{Name: "fulladder", Build: func() (*synth.Netlist, error) { return nil, nil }})
}

// TestMult8CellSwapFailsNetlistStage: one NAND2 of mult8 turned into a
// NOR2 must fail the netlist stage's exhaustive spec check.
func TestMult8CellSwapFailsNetlistStage(t *testing.T) {
	orig, err := LookupCircuit("mult8")
	if err != nil {
		t.Fatal(err)
	}
	mutant := *orig
	mutant.Name = "mult8-nor-swap"
	mutant.Build = func() (*synth.Netlist, error) {
		nl, err := orig.Build()
		if err != nil {
			return nil, err
		}
		for i := range nl.Instances {
			if nl.Instances[i].Cell == "NAND2_1X" {
				nl.Instances[i].Cell = "NOR2_1X"
				return nl, nil
			}
		}
		t.Fatal("mult8 has no NAND2_1X")
		return nil, nil
	}
	RegisterCircuit(mutant)
	t.Cleanup(func() {
		registryMu.Lock()
		delete(registry, mutant.Name)
		registryMu.Unlock()
	})
	_, err = kit(t).Run(context.Background(), Request{Circuit: mutant.Name, Techs: []string{"cnfet"}})
	if err == nil || !strings.Contains(err.Error(), "synth: output") {
		t.Fatalf("netlist stage on the swapped mult8: err = %v, want a spec mismatch", err)
	}
}
