//go:build !rmwcount

package native

func countRMW() {}
