package bench

// Suite is a named set of experiments, selectable as
// `waziexp run -suite <name>`.
type Suite struct {
	Name        string
	Description string
	// Experiments lists the experiment ids the suite runs, in order.
	Experiments []string
}

// Suites returns the named experiment suites.
func Suites() []Suite {
	paper := []string{
		"tab1", "tab2", "fig4", "fig6", "fig7", "fig8", "fig9", "fig10",
		"tab3", "tab4", "tab5", "fig11", "fig12", "fig13",
	}
	serving := []string{"serving-http", "repartition"}
	return []Suite{
		{
			Name:        "paper",
			Description: "every table and figure of the paper's evaluation (§6)",
			Experiments: paper,
		},
		{
			Name:        "serving",
			Description: "the serving-layer experiments: HTTP serving and online repartitioning",
			Experiments: serving,
		},
		{
			Name:        "full",
			Description: "everything: the paper evaluation plus the serving-layer experiments",
			Experiments: append(append([]string{}, paper...), serving...),
		},
	}
}

// SuiteByName returns the named suite.
func SuiteByName(name string) (Suite, bool) {
	for _, s := range Suites() {
		if s.Name == name {
			return s, true
		}
	}
	return Suite{}, false
}
