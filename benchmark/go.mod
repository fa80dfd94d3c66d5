module mrcprm/benchmark

go 1.22

require mrcprm v0.0.0

replace mrcprm => ../
