package trace

// FirstValueAgree exposes the agreement-checked FirstValue factory to the
// external test package.
var FirstValueAgree = firstValueAgree
