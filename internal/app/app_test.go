package app

import (
	"testing"
	"time"

	"repro/internal/bml"
	"repro/internal/profile"
)

func TestCriticalityStringsAndHeadroom(t *testing.T) {
	cases := []struct {
		c        Criticality
		name     string
		headroom float64
	}{
		{Tolerant, "tolerant", 1.0},
		{Intermediate, "intermediate", 1.1},
		{Critical, "critical", 1.2},
	}
	for _, c := range cases {
		if c.c.String() != c.name {
			t.Errorf("String = %q, want %q", c.c.String(), c.name)
		}
		if c.c.DefaultHeadroom() != c.headroom {
			t.Errorf("%s headroom = %v, want %v", c.name, c.c.DefaultHeadroom(), c.headroom)
		}
	}
	if Criticality(9).String() == "" {
		t.Error("unknown class renders empty")
	}
}

func TestLoadKnowledgeStrings(t *testing.T) {
	for k, want := range map[LoadKnowledge]string{
		UnknownLoad: "unknown", PartialLoad: "partial", PerfectLoad: "perfect",
	} {
		if k.String() != want {
			t.Errorf("String = %q, want %q", k.String(), want)
		}
	}
	if LoadKnowledge(9).String() == "" {
		t.Error("unknown knowledge renders empty")
	}
}

func TestSpecValidate(t *testing.T) {
	good := StatelessWebServer()
	if err := good.Validate(); err != nil {
		t.Fatalf("paper's application rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"empty name", func(s *Spec) { s.Name = "" }},
		{"negative min instances", func(s *Spec) { s.Malleability.MinInstances = -1 }},
		{"max below min", func(s *Spec) { s.Malleability = Malleability{MinInstances: 5, MaxInstances: 2} }},
		{"negative migration duration", func(s *Spec) { s.Migration.Duration = -time.Second }},
		{"negative migration energy", func(s *Spec) { s.Migration.Energy = -1 }},
		{"immobile with costs", func(s *Spec) { s.Migration = Migration{Migratable: false, Energy: 5} }},
		{"headroom below one", func(s *Spec) { s.Headroom = 0.5 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := StatelessWebServer()
			c.mutate(&s)
			if err := s.Validate(); err == nil {
				t.Error("invalid spec accepted")
			}
		})
	}
}

func TestMaxZeroMeansUnbounded(t *testing.T) {
	s := StatelessWebServer()
	s.Malleability = Malleability{MinInstances: 3, MaxInstances: 0}
	if err := s.Validate(); err != nil {
		t.Errorf("unbounded max rejected: %v", err)
	}
}

func TestEffectiveHeadroom(t *testing.T) {
	s := StatelessWebServer()
	if s.EffectiveHeadroom() != 1.0 {
		t.Errorf("tolerant default = %v", s.EffectiveHeadroom())
	}
	s.Class = Critical
	if s.EffectiveHeadroom() != 1.2 {
		t.Errorf("critical default = %v", s.EffectiveHeadroom())
	}
	s.Headroom = 1.5
	if s.EffectiveHeadroom() != 1.5 {
		t.Errorf("explicit headroom not honored: %v", s.EffectiveHeadroom())
	}
}

func paperCombos(t *testing.T) (small, large bml.Combination) {
	t.Helper()
	planner, err := bml.NewPlanner(profile.PaperMachines())
	if err != nil {
		t.Fatal(err)
	}
	return planner.Combination(9), planner.Combination(1431)
}

func TestStatelessWebServerShape(t *testing.T) {
	s := StatelessWebServer()
	if s.Class != Tolerant || s.Knowledge != PartialLoad || !s.Migration.Migratable {
		t.Errorf("paper application mischaracterized: %+v", s)
	}
	if s.Malleability.MinInstances != 0 || s.Malleability.MaxInstances != 0 {
		t.Errorf("stateless web server must be fully malleable: %+v", s.Malleability)
	}
}
