module hpcnmf/benchmark

go 1.22

require hpcnmf v0.0.0

replace hpcnmf => ../
