package core

import (
	"strings"
	"testing"
)

func TestConfigByName(t *testing.T) {
	for name, want := range map[string]Config{
		"vifi":           DefaultConfig(),
		"brr":            BRRConfig(),
		"diversity-only": DiversityOnlyConfig(),
	} {
		if got, err := ConfigByName(name); err != nil || got != want {
			t.Errorf("ConfigByName(%q) = %+v, %v", name, got, err)
		}
	}
	_, err := ConfigByName("ViFi")
	if err == nil || !strings.Contains(err.Error(), "vifi, brr, diversity-only") {
		t.Errorf("unknown name: err = %v, want the valid names listed", err)
	}
}
