package dlm

import "testing"

// TestPolicyByName: each flag name selects its stock policy, and any
// other name is refused.
func TestPolicyByName(t *testing.T) {
	for name, want := range map[string]Policy{
		"seqdlm":   SeqDLM(),
		"basic":    Basic(),
		"lustre":   Lustre(),
		"datatype": Datatype(),
	} {
		got, err := PolicyByName(name)
		if err != nil || got != want {
			t.Errorf("PolicyByName(%q) = %+v, %v; want %+v", name, got, err, want)
		}
	}
	for _, name := range []string{"", "SeqDLM", "DLM-basic", "seq"} {
		if _, err := PolicyByName(name); err == nil {
			t.Errorf("PolicyByName(%q) accepted", name)
		}
	}
}
