package ir

// The reference parser and printer, for the differential tests of the
// external test package.
var (
	RefParse    = refParse
	RefParseAll = refParseAll
	RefString   = refString
)

// FuncDiff compares two functions field by field, for the codec
// differential test of the external test package.
var FuncDiff = funcDiff
